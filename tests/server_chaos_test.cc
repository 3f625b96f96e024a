// Wire-level fault injection against a real server (docs/ROBUSTNESS.md).
//
// Every scenario here drives the stock Server + Client through the
// syscall seam (common/sys_hooks.h): partial transfers, EINTR storms,
// stalls past the deadline, resets mid-batch, admission sheds, and a
// disk that fails under socket faults. The invariants under test are
// the robustness layer's promises: no call hangs forever, a deadline or
// disconnect aborts the affected transaction exactly once, an I/O error
// reaches every committer, and the asset_server_* metrics account for
// every outcome.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/command.h"
#include "client/client.h"
#include "common/sys_hooks.h"
#include "common/trace.h"
#include "core/database.h"
#include "server/server.h"

namespace asset {
namespace {

using api::Command;
using api::Reply;
using client::Client;
using server::Server;

/// Pulls one metric value out of Prometheus exposition text.
int64_t Metric(const std::string& text, const std::string& name) {
  std::string needle = "\n" + name + " ";
  size_t pos = text.find(needle);
  if (pos == std::string::npos) {
    if (text.rfind(name + " ", 0) == 0) {
      pos = 0;
      needle = name + " ";
    } else {
      return -1;
    }
  }
  return std::stoll(text.substr(pos + needle.size()));
}

class ServerChaosTest : public ::testing::Test {
 protected:
  void StartServer(Server::Options opts = {}) {
    db_ = Database::Open().value();
    server_ = Server::Start(db_.get(), opts).value();
  }

  std::unique_ptr<Client> Connect(Client::Options copts = {}) {
    return Client::Connect("127.0.0.1", server_->port(), copts).value();
  }

  int64_t ServerMetric(const std::string& name) {
    return Metric(server_->MetricsText(), name);
  }

  void TearDown() override {
    // Quiesce all traffic before any test-scoped hook dies.
    server_.reset();
    db_.reset();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

// --- A silent peer cannot hang the client ----------------------------

TEST_F(ServerChaosTest, SilentServerTimesOutInsteadOfHanging) {
  // A listener that accepts and then says nothing, ever — the
  // handshake's reply read must hit io_timeout, not block forever.
  int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);
  std::thread accepter([lfd] {
    int c = accept(lfd, nullptr, nullptr);
    std::this_thread::sleep_for(std::chrono::seconds(2));
    if (c >= 0) close(c);
  });

  Client::Options copts;
  copts.io_timeout = std::chrono::milliseconds(200);
  copts.max_retries = 0;
  auto start = std::chrono::steady_clock::now();
  auto result = Client::Connect("127.0.0.1", port, copts);
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimedOut()) << result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));

  accepter.join();
  close(lfd);
}

// --- Partial transfers and EINTR never corrupt the stream ------------

TEST_F(ServerChaosTest, PartialWritesAndShortReadsMidFrame) {
  StartServer();
  // Clamp every transfer to a handful of bytes and serve EINTR every
  // third call: frames fragment at arbitrary boundaries on both ends.
  std::atomic<uint64_t> calls{0};
  SysHooks hooks;
  hooks.send = [&calls](int fd, const void* buf, size_t len, int flags) {
    uint64_t n = calls.fetch_add(1, std::memory_order_relaxed);
    if (n % 3 == 2) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    return ::send(fd, buf, std::min<size_t>(len, 7), flags);
  };
  hooks.recv = [&calls](int fd, void* buf, size_t len, int flags) {
    uint64_t n = calls.fetch_add(1, std::memory_order_relaxed);
    if (n % 3 == 2) {
      errno = EINTR;
      return static_cast<ssize_t>(-1);
    }
    return ::recv(fd, buf, std::min<size_t>(len, 5), flags);
  };
  {
    ScopedSysHooks guard(&hooks);
    auto c = Connect();
    ASSERT_TRUE(c->Begin().ok());
    auto oid = c->Create({1, 2, 3, 4, 5, 6, 7, 8});
    ASSERT_TRUE(oid.ok());
    auto bytes = c->Get(*oid);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes->size(), 8u);
    ASSERT_TRUE(c->Commit().ok());
    c.reset();
    server_->Shutdown();  // join all traffic before the hook dies
  }
  server_.reset();
}

// --- Deadlines bound kernel waits and abort exactly once -------------

TEST_F(ServerChaosTest, StalledLockWaitHitsDeadlineAndAbortsOnce) {
  StartServer();
  auto holder = Connect();
  ASSERT_TRUE(holder->Begin().ok());
  auto oid = holder->Create({42});
  ASSERT_TRUE(oid.ok());  // write lock held until commit

  auto waiter = Connect();
  ASSERT_TRUE(waiter->Begin().ok());
  auto start = std::chrono::steady_clock::now();
  auto r = waiter->Call(
      Command::Put(*oid, std::vector<uint8_t>{7}).WithDeadline(100));
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kTimedOut) << r->message;
  EXPECT_NE(r->message.find("transaction aborted"), std::string::npos)
      << r->message;
  EXPECT_LT(elapsed, std::chrono::seconds(3));  // not lock_timeout (5s)

  // Aborted exactly once: the session no longer owns the transaction,
  // so a second abort attempt finds nothing.
  auto again = waiter->Call(Command::Abort());
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->code, StatusCode::kOk);

  EXPECT_EQ(ServerMetric("asset_server_deadline_timeout_aborts_total"), 1);
  ASSERT_TRUE(holder->Commit().ok());
  EXPECT_EQ(ServerMetric("asset_server_open_txns"), 0);
}

TEST_F(ServerChaosTest, BatchMateBurnsBudgetExpiresBeforeDispatch) {
  StartServer();
  auto holder = Connect();
  ASSERT_TRUE(holder->Begin().ok());
  auto oid = holder->Create({42});
  ASSERT_TRUE(oid.ok());

  // One pipelined batch: the first Put blocks ~150 ms on the held
  // lock, exhausting the second command's 50 ms budget while it sits
  // queued behind its batch-mate.
  auto waiter = Connect();
  ASSERT_TRUE(waiter->Begin().ok());
  waiter->Send(Command::Put(*oid, std::vector<uint8_t>{7}).WithDeadline(150));
  waiter->Send(Command::Put(*oid, std::vector<uint8_t>{8}).WithDeadline(50));
  ASSERT_TRUE(waiter->Flush().ok());
  auto first = waiter->Receive();
  auto second = waiter->Receive();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->code, StatusCode::kTimedOut) << first->message;
  EXPECT_EQ(second->code, StatusCode::kTimedOut) << second->message;
  EXPECT_NE(second->message.find("expired before"), std::string::npos)
      << second->message;

  EXPECT_EQ(ServerMetric("asset_server_deadline_timeout_aborts_total"), 1);
  EXPECT_EQ(ServerMetric("asset_server_deadline_expired_total"), 1);
  ASSERT_TRUE(holder->Commit().ok());
}

// --- Admission control ------------------------------------------------

TEST_F(ServerChaosTest, OverloadShedsBeginsButAdmitsFinishingWork) {
  Server::Options opts;
  opts.admission_max_open_txns = 2;
  StartServer(opts);

  Client::Options no_retry;
  no_retry.max_retries = 0;
  auto c1 = Connect(no_retry);
  auto c2 = Connect(no_retry);
  ASSERT_TRUE(c1->Begin().ok());
  ASSERT_TRUE(c2->Begin().ok());

  // At the cap: a third Begin is shed with a retryable kOverloaded
  // carrying a retry-after hint.
  auto c3 = Connect(no_retry);
  auto shed = c3->Call(Command::Begin());
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, StatusCode::kOverloaded) << shed->message;
  EXPECT_TRUE(shed->ToStatus().IsRetryable());
  ASSERT_EQ(shed->kind, api::ReplyValueKind::kI64);
  EXPECT_GE(shed->i64, 20);  // at least the base hint

  // Work on running transactions is class 1: admitted even while
  // overloaded, because finishing is how the overload clears.
  auto obj = c1->Create({1});
  EXPECT_TRUE(obj.ok());
  ASSERT_TRUE(c1->Commit().ok());

  // Capacity freed: the retried Begin is admitted.
  EXPECT_TRUE(c3->Begin().ok());
  EXPECT_EQ(ServerMetric("asset_server_admission_shed_total"), 1);
  ASSERT_TRUE(c2->Abort().ok());
  ASSERT_TRUE(c3->Abort().ok());
  EXPECT_EQ(ServerMetric("asset_server_open_txns"), 0);
}

TEST_F(ServerChaosTest, ClientRetriesShedBeginUntilAdmitted) {
  Server::Options opts;
  opts.admission_max_open_txns = 1;
  StartServer(opts);

  Client::Options retrying;
  retrying.max_retries = 20;
  retrying.backoff_base = std::chrono::milliseconds(5);
  auto blocker = Connect();
  ASSERT_TRUE(blocker->Begin().ok());

  std::thread release([&blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(blocker->Abort().ok());
  });
  auto c = Connect(retrying);
  auto begun = c->Begin();
  release.join();
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  EXPECT_GE(c->stats().retries, 1u);
  EXPECT_GE(c->stats().overloaded_seen, 1u);
  ASSERT_TRUE(c->Commit().ok());
}

// --- Wire trace context survives retries and reconnects ---------------

TEST_F(ServerChaosTest, TraceIdSurvivesShedRetriesWithFreshSpans) {
  Server::Options opts;
  opts.admission_max_open_txns = 1;
  StartServer(opts);
  db_->set_trace_enabled(true);

  Client::Options retrying;
  retrying.max_retries = 20;
  retrying.backoff_base = std::chrono::milliseconds(5);
  retrying.trace_recorder = &db_->trace_recorder();

  auto blocker = Connect();  // untraced: its events stay off the drain
  ASSERT_TRUE(blocker->Begin().ok());
  std::thread release([&blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ASSERT_TRUE(blocker->Abort().ok());
  });
  auto c = Connect(retrying);
  auto begun = c->Begin();
  release.join();
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  ASSERT_GE(c->stats().retries, 1u);
  uint64_t trace = c->last_trace_id();
  ASSERT_NE(trace, 0u);

  // One logical Begin, several wire attempts: every attempt shares the
  // one trace id, each with its own span and its own client round trip.
  auto evs = db_->trace_recorder().Drain();
  std::vector<uint64_t> spans;
  size_t rpcs = 0, shed = 0, admitted = 0;
  for (const auto& ev : evs) {
    if (ev.tid != trace) continue;
    if (ev.type == TraceEventType::kClientRpc) {
      ++rpcs;
      spans.push_back(ev.other);
    }
    if (ev.type == TraceEventType::kAdmission) {
      (ev.arg != 0 ? shed : admitted) += 1;
    }
  }
  EXPECT_GE(rpcs, 2u);  // at least one shed attempt plus the winner
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(admitted, 1u);
  std::sort(spans.begin(), spans.end());
  EXPECT_EQ(std::adjacent_find(spans.begin(), spans.end()), spans.end())
      << "retried attempts must mint fresh span ids";
  ASSERT_TRUE(c->Commit().ok());
}

TEST_F(ServerChaosTest, PreStampedTraceSurvivesReconnect) {
  Server::Options opts;
  opts.idle_timeout = std::chrono::milliseconds(100);
  StartServer(opts);
  db_->set_trace_enabled(true);

  Client::Options copts;
  copts.trace_recorder = &db_->trace_recorder();
  auto c = Connect(copts);
  ASSERT_TRUE(c->Ping().ok());

  // Let the server reap the idle connection; the client discovers the
  // dead transport on its next call.
  for (int i = 0; i < 500 && server_->stats().idle_closed.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server_->stats().idle_closed.load(), 1u);
  ASSERT_FALSE(c->Ping().ok());  // discovers the close, marks fd dead

  // A caller-stamped trace id must ride through the transparent
  // re-dial + re-handshake untouched.
  constexpr uint64_t kTrace = 0xABCDEF12345ULL;
  auto r = c->Call(Command::Ping().WithTrace(kTrace, 0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ok());
  EXPECT_GE(c->stats().reconnects, 1u);

  bool client_side = false, server_side = false;
  for (const auto& ev : db_->trace_recorder().Drain()) {
    if (ev.tid != kTrace) continue;
    if (ev.type == TraceEventType::kClientRpc) client_side = true;
    if (ev.type == TraceEventType::kRpcExecute) server_side = true;
  }
  EXPECT_TRUE(client_side);
  EXPECT_TRUE(server_side);
}

// --- Reset mid-batch aborts the open transaction ----------------------

TEST_F(ServerChaosTest, ResetDuringPipelinedBatchAbortsOpenTxn) {
  StartServer();
  {
    auto victim = Connect();
    ASSERT_TRUE(victim->Begin().ok());
    victim->Send(Command::Create(std::vector<uint8_t>{1}));
    victim->Send(Command::Create(std::vector<uint8_t>{2}));
    ASSERT_TRUE(victim->Flush().ok());
    // Destruction closes the socket with the batch's replies unread —
    // the server finds the peer gone mid-conversation and must abort
    // the connection's open transaction.
  }
  // The abrupt close aborts the victim's open transaction exactly once.
  for (int i = 0; i < 500; ++i) {
    if (ServerMetric("asset_server_open_txns") == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ServerMetric("asset_server_open_txns"), 0);
  EXPECT_GE(ServerMetric("asset_server_txns_aborted_on_close_total"), 1);
}

// --- The long haul: 1000+ faulted iterations, zero hangs --------------

TEST_F(ServerChaosTest, ThousandFaultedTransactionsNoHangsNoLeaks) {
  StartServer();
  // Deterministic fault pattern keyed off a shared call counter:
  // every transfer is clamped, every 5th call takes EINTR, every 64th
  // stalls a moment. No call in the loop may hang or fail.
  std::atomic<uint64_t> calls{0};
  SysHooks hooks;
  auto fault = [&calls](size_t len) -> ssize_t {
    uint64_t n = calls.fetch_add(1, std::memory_order_relaxed);
    if (n % 5 == 4) {
      errno = EINTR;
      return -1;
    }
    if (n % 64 == 63) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    size_t clamp = 1 + (n % 96);
    return static_cast<ssize_t>(std::min(len, clamp));
  };
  hooks.send = [&fault](int fd, const void* buf, size_t len, int flags) {
    ssize_t budget = fault(len);
    if (budget < 0) return budget;
    return ::send(fd, buf, static_cast<size_t>(budget), flags);
  };
  hooks.recv = [&fault](int fd, void* buf, size_t len, int flags) {
    ssize_t budget = fault(len);
    if (budget < 0) return budget;
    return ::recv(fd, buf, static_cast<size_t>(budget), flags);
  };
  {
    ScopedSysHooks guard(&hooks);
    Client::Options copts;
    copts.io_timeout = std::chrono::seconds(10);
    copts.default_deadline_ms = 5000;
    auto c = Connect(copts);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(c->Begin().ok()) << "iteration " << i;
      auto oid = c->Create({static_cast<uint8_t>(i), 2, 3});
      ASSERT_TRUE(oid.ok()) << "iteration " << i;
      ASSERT_TRUE(c->Put(*oid, {4, 5, 6}).ok()) << "iteration " << i;
      auto bytes = c->Get(*oid);
      ASSERT_TRUE(bytes.ok()) << "iteration " << i;
      ASSERT_EQ(bytes->size(), 3u);
      ASSERT_TRUE(i % 2 == 0 ? c->Commit().ok() : c->Abort().ok())
          << "iteration " << i;
    }
    EXPECT_EQ(ServerMetric("asset_server_open_txns"), 0);
    c.reset();
    server_->Shutdown();  // join all traffic before the hook dies
  }
  server_.reset();
}

// --- Disk and socket faulted together --------------------------------

// A strict, file-backed server keeps answering while every send is
// short and then the disk starts failing: each pipelined reply arrives
// within its deadline, every commit after the fault reports the I/O
// error (it sticks), and every commit acked before it survives a
// reopen.
TEST_F(ServerChaosTest, FsyncFailureUnderShortSendsFailsCommitsAndKeepsAcked) {
  const std::string path = ::testing::TempDir() + "/asset_chaos_disk.data";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  Database::Options dopts;
  dopts.path = path;
  dopts.txn.durability = DurabilityPolicy::kStrict;
  db_ = Database::Open(dopts).value();
  server_ = Server::Start(db_.get(), {}).value();

  constexpr int kHealthy = 20, kFaulted = 10;
  constexpr auto kRoundBound = std::chrono::seconds(5);
  Client::Options copts;
  copts.io_timeout = std::chrono::seconds(10);
  copts.default_deadline_ms = 5000;

  // Objects for both phases exist before any fault. The faulted phase
  // writes its own objects: a failed commit's records may still reach
  // the file, and must not shadow an acked value.
  std::vector<ObjectId> healthy_objs, faulted_objs;
  {
    auto setup = Connect(copts);
    ASSERT_TRUE(setup->Begin().ok());
    for (int i = 0; i < kHealthy + kFaulted; ++i) {
      auto oid = setup->Create({0});
      ASSERT_TRUE(oid.ok());
      (i < kHealthy ? healthy_objs : faulted_objs).push_back(*oid);
    }
    ASSERT_TRUE(setup->Commit().ok());
  }

  std::atomic<bool> disk_failing{false};
  std::atomic<uint64_t> short_sends{0}, failed_fsyncs{0};
  SysHooks hooks;
  hooks.send = [&](int fd, const void* buf, size_t len, int flags) {
    if (len > 5) short_sends.fetch_add(1, std::memory_order_relaxed);
    return ::send(fd, buf, std::min<size_t>(len, 5), flags);
  };
  hooks.fsync = [&](int fd) {
    if (disk_failing.load(std::memory_order_acquire)) {
      failed_fsyncs.fetch_add(1, std::memory_order_relaxed);
      errno = EIO;
      return -1;
    }
    return ::fsync(fd);
  };

  std::vector<std::pair<ObjectId, uint8_t>> acked;
  {
    ScopedSysHooks guard(&hooks);
    auto c = Connect(copts);
    // One pipelined Begin+Put+Commit round; returns the Commit reply.
    auto round = [&](ObjectId oid, uint8_t value) -> Result<Reply> {
      const auto start = std::chrono::steady_clock::now();
      c->Send(Command::Begin());
      c->Send(Command::Put(oid, std::vector<uint8_t>{value}));
      c->Send(Command::Commit());
      ASSET_RETURN_NOT_OK(c->Flush());
      Result<Reply> commit = Status::Internal("no commit reply");
      for (int i = 0; i < 3; ++i) {
        commit = c->Receive();  // a reply that never came is an error
        if (!commit.ok()) return commit;
      }
      EXPECT_LT(std::chrono::steady_clock::now() - start, kRoundBound);
      return commit;
    };

    for (int i = 0; i < kHealthy; ++i) {
      const uint8_t value = static_cast<uint8_t>(10 + i);
      auto r = round(healthy_objs[i], value);
      ASSERT_TRUE(r.ok()) << "round " << i << ": " << r.status().ToString();
      ASSERT_EQ(r->code, StatusCode::kOk) << "round " << i << ": "
                                          << r->message;
      acked.emplace_back(healthy_objs[i], value);
    }
    EXPECT_GT(short_sends.load(), 0u);  // the socket fault was live

    disk_failing.store(true, std::memory_order_release);
    for (int i = 0; i < kFaulted; ++i) {
      auto r = round(faulted_objs[i], static_cast<uint8_t>(100 + i));
      ASSERT_TRUE(r.ok()) << "round " << i << ": " << r.status().ToString();
      EXPECT_EQ(r->code, StatusCode::kIOError) << "round " << i << ": "
                                               << r->message;
    }
    EXPECT_GT(failed_fsyncs.load(), 0u);
    c.reset();
    server_.reset();  // join all traffic before the hook dies
    db_.reset();
  }

  // Reopen on a healthy disk: recovery replays every acked commit.
  db_ = Database::Open(dopts).value();
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  for (const auto& [oid, value] : acked) {
    auto bytes = txn->Read(oid);
    ASSERT_TRUE(bytes.ok()) << "object " << oid;
    EXPECT_EQ(*bytes, std::vector<uint8_t>{value}) << "object " << oid;
  }
  ASSERT_TRUE(txn->Commit().ok());
  db_.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace asset
