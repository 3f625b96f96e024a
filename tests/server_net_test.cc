// End-to-end tests of the network front door: a real Server on an
// ephemeral loopback port, driven by the blocking client and by raw
// sockets (for the malformed-frame cases the client cannot produce).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/command.h"
#include "api/wire.h"
#include "client/client.h"
#include "common/sys_hooks.h"
#include "common/trace.h"
#include "core/database.h"
#include "json_lite.h"
#include "server/server.h"

namespace asset {
namespace {

using api::Command;
using api::Reply;
using client::Client;
using server::Server;

/// Spins until `pred` holds or ~5s elapse.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

/// A bare TCP connection for speaking deliberately broken protocol.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void SendBytes(const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  void SendFrame(const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> framed;
    api::AppendFrame(payload, &framed);
    SendBytes(framed);
  }

  void SendCommand(const Command& cmd) {
    std::vector<uint8_t> payload;
    api::EncodeCommand(cmd, &payload);
    SendFrame(payload);
  }

  /// Reads one reply frame (blocking); nullopt on EOF/error. Bytes of
  /// later frames that arrived with it are kept for the next call.
  std::optional<Reply> ReadReply() {
    for (;;) {
      std::span<const uint8_t> payload;
      if (api::TrySplitFrame(buf_, 1 << 20, &payload) ==
          api::FrameSplit::kFrame) {
        auto r = api::DecodeReply(payload);
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<ptrdiff_t>(
                                      api::kFrameHeaderBytes + payload.size()));
        if (!r.ok()) return std::nullopt;
        return *r;
      }
      uint8_t chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buf_.insert(buf_.end(), chunk, chunk + n);
    }
  }

  /// True once the server has closed this connection (recv sees EOF);
  /// unread reply bytes are discarded.
  bool WaitForClose() {
    for (;;) {
      uint8_t chunk[4096];
      ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::vector<uint8_t> buf_;  ///< received bytes not yet read as a reply
};

/// An fsync hook that holds the first fsync after Arm() open until
/// Release(), so a test can look at the server while the WAL flush
/// behind a gated commit is in progress. `inside` runs on the fsyncing
/// thread just before it blocks.
class FsyncLatch {
 public:
  FsyncLatch() {
    hooks_.fsync = [this](int fd) {
      std::unique_lock<std::mutex> lk(mu_);
      if (armed_) {
        armed_ = false;
        if (inside) inside();
        entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lk, std::chrono::seconds(10), [&] { return released_; });
      }
      lk.unlock();
      return ::fsync(fd);
    };
  }

  const SysHooks* hooks() const { return &hooks_; }

  void Arm() {
    std::lock_guard<std::mutex> g(mu_);
    armed_ = true;
  }
  /// True once the armed fsync is being held (false after ~10 s).
  bool WaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10), [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> g(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::function<void()> inside;

 private:
  SysHooks hooks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
};

class ServerNetTest : public ::testing::Test {
 protected:
  void TearDown() override {
    server_.reset();
    db_.reset();
    if (!path_.empty()) RemoveFiles();
  }

  void StartServer(Server::Options opts = {}) {
    db_ = Database::Open().value();
    server_ = Server::Start(db_.get(), opts).value();
  }

  /// A file-backed strict-durability database: every commit ack waits
  /// for an fsync. Reopening the same `name` runs recovery.
  Database::Options DurableOptions(const std::string& name) {
    path_ = ::testing::TempDir() + "/" + name + ".data";
    Database::Options o;
    o.path = path_;
    o.txn.durability = DurabilityPolicy::kStrict;
    return o;
  }

  void StartDurableServer(const std::string& name, Server::Options opts) {
    Database::Options o = DurableOptions(name);
    RemoveFiles();
    db_ = Database::Open(o).value();
    server_ = Server::Start(db_.get(), opts).value();
  }

  void RemoveFiles() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  std::unique_ptr<Client> Connect() {
    return Client::Connect("127.0.0.1", server_->port()).value();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  std::string path_;
};

TEST_F(ServerNetTest, OptionsValidateRejectsNonsense) {
  Server::Options o;
  o.workers = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = {};
  o.max_connections = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = {};
  o.max_frame_bytes = 4;
  EXPECT_FALSE(o.Validate().ok());
  o = {};
  o.write_buffer_limit = 16;  // below one max-size frame
  EXPECT_FALSE(o.Validate().ok());
  o = {};
  o.idle_timeout = std::chrono::milliseconds(-1);
  EXPECT_FALSE(o.Validate().ok());
  o = {};
  EXPECT_TRUE(o.Validate().ok());
  auto db = Database::Open().value();
  Server::Options bad;
  bad.workers = -3;
  EXPECT_FALSE(Server::Start(db.get(), bad).ok());
}

TEST_F(ServerNetTest, HandshakeBeginPutCommit) {
  StartServer();
  auto c = Connect();
  ASSERT_TRUE(c->Ping().ok());

  Tid t = c->Begin().value();
  EXPECT_NE(t, kNullTid);
  ObjectId oid = c->Create({1, 2, 3}).value();
  EXPECT_EQ(c->Get(oid).value(), (std::vector<uint8_t>{1, 2, 3}));
  ASSERT_TRUE(c->Put(oid, {4, 5}).ok());
  ASSERT_TRUE(c->Commit().ok());
  EXPECT_TRUE(db_->IsCommitted(t));

  // Counters over the wire.
  ASSERT_TRUE(c->Begin().ok());
  ObjectId ctr = c->CreateCounter(10).value();
  ASSERT_TRUE(c->Add(ctr, 5).ok());
  EXPECT_EQ(c->GetCounter(ctr).value(), 15);
  ASSERT_TRUE(c->Commit().ok());
}

TEST_F(ServerNetTest, CommandBeforeHelloIsRejected) {
  StartServer();
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());
  raw.SendCommand(Command::Begin());
  auto r = raw.ReadReply();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->code, StatusCode::kIllegalState);
}

TEST_F(ServerNetTest, BadMagicIsRejected) {
  StartServer();
  RawConn raw(server_->port());
  Command hello = Command::Hello();
  hello.magic = 0x0BADF00D;
  raw.SendCommand(hello);
  auto r = raw.ReadReply();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->code, StatusCode::kInvalidArgument);
}

TEST_F(ServerNetTest, PipelinedBatchExecutesInOrder) {
  StartServer();
  auto c = Connect();

  // One flush carries begin + create + a failing commit + the real
  // commit; kCurrentTxn binds the data ops to the tid the first
  // command will create, and the mid-batch error must neither derail
  // the later commands nor reorder the replies.
  c->Send(Command::Begin());
  c->Send(Command::Create(std::vector<uint8_t>{7}));
  c->Send(Command::Commit(999999999));  // not a tid this session owns
  c->Send(Command::Commit());
  ASSERT_TRUE(c->Flush().ok());

  Reply begin = c->Receive().value();
  ASSERT_TRUE(begin.ok());
  Reply create = c->Receive().value();
  ASSERT_TRUE(create.ok());
  Reply bad_commit = c->Receive().value();
  EXPECT_EQ(bad_commit.code, StatusCode::kNotFound);
  Reply commit = c->Receive().value();
  EXPECT_TRUE(commit.ok());
  EXPECT_TRUE(db_->IsCommitted(begin.u64));

  // A second pipelined batch against the object the first one created.
  ObjectId oid = create.u64;
  c->Send(Command::Begin());
  c->Send(Command::Get(oid));
  c->Send(Command::Commit());
  ASSERT_TRUE(c->Flush().ok());
  ASSERT_TRUE(c->Receive().value().ok());
  Reply read = c->Receive().value();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.bytes, (std::vector<uint8_t>{7}));
  ASSERT_TRUE(c->Receive().value().ok());
}

TEST_F(ServerNetTest, SessionTxnLimitRejected) {
  Server::Options opts;
  opts.max_txns_per_conn = 2;
  StartServer(opts);
  auto c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  ASSERT_TRUE(c->Begin().ok());
  auto third = c->Begin();
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // The connection survives the rejection.
  EXPECT_TRUE(c->Ping().ok());
}

TEST_F(ServerNetTest, ClientDisconnectAbortsOpenTxn) {
  StartServer();
  Tid t;
  {
    auto c = Connect();
    t = c->Begin().value();
    ObjectId oid = c->Create({1}).value();
    (void)oid;
    ASSERT_TRUE(db_->IsActiveTxn(t));
  }  // client destroyed: socket closes mid-transaction
  EXPECT_TRUE(Eventually([&] { return db_->IsAborted(t); }));
  EXPECT_TRUE(Eventually([&] {
    return server_->stats().txns_aborted_on_close.load() >= 1;
  }));
}

TEST_F(ServerNetTest, MalformedFrameGetsErrorReplyThenClose) {
  StartServer();
  RawConn raw(server_->port());
  raw.SendCommand(Command::Hello());
  ASSERT_TRUE(raw.ReadReply().has_value());

  // A frame whose payload is a valid length of garbage.
  raw.SendFrame({0xFF, 0xEE, 0xDD});
  auto r = raw.ReadReply();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_TRUE(raw.WaitForClose());
  EXPECT_TRUE(Eventually(
      [&] { return server_->stats().protocol_errors.load() >= 1; }));
}

TEST_F(ServerNetTest, OversizedFrameClosesConnection) {
  Server::Options opts;
  opts.max_frame_bytes = 1024;
  StartServer(opts);
  RawConn raw(server_->port());
  raw.SendCommand(Command::Hello());
  ASSERT_TRUE(raw.ReadReply().has_value());
  // Length prefix far above max_frame_bytes; stream is unrecoverable.
  raw.SendBytes({0xFF, 0xFF, 0xFF, 0x7F});
  EXPECT_TRUE(raw.WaitForClose());
}

TEST_F(ServerNetTest, TruncatedFrameThenDisconnectAbortsTxn) {
  StartServer();
  Tid t = kNullTid;
  {
    RawConn raw(server_->port());
    raw.SendCommand(Command::Hello());
    ASSERT_TRUE(raw.ReadReply().has_value());
    raw.SendCommand(Command::Begin());
    auto begin = raw.ReadReply();
    ASSERT_TRUE(begin.has_value());
    t = begin->u64;
    // Half a frame: a 100-byte length prefix and then silence.
    raw.SendBytes({100, 0, 0, 0, 1, 2, 3});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(db_->IsActiveTxn(t));  // truncated tail alone is harmless
  }  // disconnect mid-frame
  EXPECT_TRUE(Eventually([&] { return db_->IsAborted(t); }));
}

TEST_F(ServerNetTest, ConnectionLimitRejectsExcess) {
  Server::Options opts;
  opts.max_connections = 2;
  StartServer(opts);
  auto c1 = Connect();
  auto c2 = Connect();
  ASSERT_TRUE(c1->Ping().ok());
  ASSERT_TRUE(c2->Ping().ok());
  // The third is accepted at the TCP level, then closed by the server
  // before any reply: Connect's handshake fails.
  auto c3 = Client::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(c3.ok());
  EXPECT_GE(server_->stats().connections_rejected.load(), 1u);
}

TEST_F(ServerNetTest, MetricsIncludeServerFamily) {
  StartServer();
  auto c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  ASSERT_TRUE(c->Commit().ok());
  std::string text = c->Metrics().value();
  EXPECT_NE(text.find("asset_txns_committed"), std::string::npos);
  EXPECT_NE(text.find("asset_server_frames_in_total"), std::string::npos);
  EXPECT_NE(text.find("asset_server_connections_active"), std::string::npos);
}

TEST_F(ServerNetTest, GracefulShutdownAbortsInFlightSessions) {
  StartServer();
  auto c = Connect();
  Tid t = c->Begin().value();
  ASSERT_TRUE(db_->IsActiveTxn(t));
  server_->Shutdown();
  EXPECT_TRUE(db_->IsAborted(t));
  EXPECT_EQ(db_->ActiveTransactions(), 0u);
  // Shutdown is idempotent; the client now sees a dead socket.
  server_->Shutdown();
  EXPECT_FALSE(c->Ping().ok());
}

TEST_F(ServerNetTest, IdleConnectionsAreReaped) {
  Server::Options opts;
  opts.idle_timeout = std::chrono::milliseconds(100);
  StartServer(opts);
  auto c = Connect();
  ASSERT_TRUE(c->Ping().ok());
  // Wait on the server-side counter: pinging in the poll loop would
  // refresh last_activity and keep the connection alive forever.
  EXPECT_TRUE(
      Eventually([&] { return server_->stats().idle_closed.load() >= 1u; }));
  EXPECT_FALSE(c->Ping().ok());
}

// --- Wire tracing (docs/OBSERVABILITY.md) -----------------------------

TEST_F(ServerNetTest, V2HelloIsRejected) {
  StartServer();
  RawConn raw(server_->port());
  Command hello = Command::Hello();
  hello.version = 2;  // the revision before trace context
  raw.SendCommand(hello);
  auto r = raw.ReadReply();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->code, StatusCode::kInvalidArgument) << r->message;
  // The handshake did not happen, so the next command is refused too.
  raw.SendCommand(Command::Begin());
  auto begin = raw.ReadReply();
  ASSERT_TRUE(begin.has_value());
  EXPECT_EQ(begin->code, StatusCode::kIllegalState);
}

TEST_F(ServerNetTest, StageSpansShareWireTraceId) {
  StartServer();
  db_->set_trace_enabled(true);
  Client::Options copts;
  copts.trace_recorder = &db_->trace_recorder();
  auto c = Client::Connect("127.0.0.1", server_->port(), copts).value();
  EXPECT_EQ(c->server_version(), api::kProtocolVersion);

  Tid t = c->Begin().value();
  uint64_t trace = c->last_trace_id();
  ASSERT_NE(trace, 0u);
  ASSERT_TRUE(c->Commit().ok());

  // kReplyFlushed lands after the reply bytes hit the socket, so it can
  // trail the client's Receive by a beat — poll the drain.
  std::vector<TraceEvent> evs;
  auto stage = [&](TraceEventType type) -> const TraceEvent* {
    for (const auto& ev : evs) {
      if (ev.type == type && ev.tid == trace) return &ev;
    }
    return nullptr;
  };
  ASSERT_TRUE(Eventually([&] {
    evs = db_->trace_recorder().Drain();
    return stage(TraceEventType::kReplyFlushed) != nullptr;
  }));

  const TraceEvent* rpc = stage(TraceEventType::kClientRpc);
  const TraceEvent* decoded = stage(TraceEventType::kFrameDecoded);
  const TraceEvent* admission = stage(TraceEventType::kAdmission);
  const TraceEvent* queue = stage(TraceEventType::kRpcQueue);
  const TraceEvent* execute = stage(TraceEventType::kRpcExecute);
  const TraceEvent* enqueued = stage(TraceEventType::kReplyEnqueued);
  const TraceEvent* flushed = stage(TraceEventType::kReplyFlushed);
  ASSERT_NE(rpc, nullptr);
  ASSERT_NE(decoded, nullptr);
  ASSERT_NE(admission, nullptr);  // Begin goes through admission
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(enqueued, nullptr);
  ASSERT_NE(flushed, nullptr);

  // Every span agrees on the wire span id and command tag...
  EXPECT_NE(rpc->other, 0u);
  EXPECT_EQ(decoded->other, rpc->other);
  EXPECT_EQ(flushed->other, rpc->other);
  EXPECT_EQ(decoded->oid,
            static_cast<ObjectId>(api::CommandType::kBegin));
  // ...the admission decision admitted it...
  EXPECT_EQ(admission->arg, 0u);
  // ...the execute span bridges to the kernel transaction id...
  EXPECT_EQ(execute->arg, t);
  // ...and the server stages run in causal order on the shared clock.
  EXPECT_LE(decoded->ts_ns, execute->ts_ns);
  EXPECT_LE(execute->ts_ns, enqueued->ts_ns);
  EXPECT_LE(enqueued->ts_ns, flushed->ts_ns);
  EXPECT_GT(rpc->dur_ns, 0);  // the round trip took nonzero time

  // The stage histograms saw the command and export as summary lines.
  std::string metrics = server_->MetricsText();
  EXPECT_NE(metrics.find("# TYPE asset_server_stage_ns summary"),
            std::string::npos);
  EXPECT_NE(metrics.find(
                "asset_server_stage_ns{command=\"begin\",stage=\"execute\""),
            std::string::npos);
  EXPECT_NE(metrics.find("asset_server_trace_enabled 1"), std::string::npos);
}

TEST_F(ServerNetTest, DumpTraceDrainsOneTimelineOverTheWire) {
  StartServer();
  db_->set_trace_enabled(true);
  Client::Options copts;
  copts.trace_recorder = &db_->trace_recorder();
  auto c = Client::Connect("127.0.0.1", server_->port(), copts).value();

  ASSERT_TRUE(c->Begin().ok());
  ObjectId oid = c->Create({1}).value();
  ASSERT_TRUE(c->Put(oid, {2}).ok());
  ASSERT_TRUE(c->Commit().ok());
  uint64_t trace = c->last_trace_id();  // the commit's wire trace id

  std::string json = c->DumpTrace().value();
  // One Chrome-trace timeline holds the client round trip, the server
  // stage spans, and the kernel lifecycle events.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("client_rpc"), std::string::npos);
  EXPECT_NE(json.find("rpc_execute"), std::string::npos);
  EXPECT_NE(json.find("txn_commit"), std::string::npos);
  // The commit's events are queryable by its wire trace id.
  EXPECT_NE(json.find("\"trace\":" + std::to_string(trace)),
            std::string::npos);
}

TEST_F(ServerNetTest, SlowRequestsLandInSlowLog) {
  Server::Options opts;
  opts.slow_request_threshold = std::chrono::milliseconds(20);
  StartServer(opts);
  auto holder = Connect();
  ASSERT_TRUE(holder->Begin().ok());
  ObjectId oid = holder->Create({42}).value();

  // A lock wait bounded by a 60 ms deadline: well past the 20 ms
  // threshold, with a deterministic TimedOut outcome.
  auto waiter = Connect();
  ASSERT_TRUE(waiter->Begin().ok());
  auto r = waiter->Call(
      Command::Put(oid, std::vector<uint8_t>{7}).WithDeadline(60));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kTimedOut) << r->message;
  ASSERT_TRUE(holder->Commit().ok());

  // Capture happens when the reply finishes flushing, which can trail
  // the client's Receive by a beat.
  ASSERT_TRUE(Eventually([&] {
    return server_->SlowLogJson().find("\"command\":\"put\"") !=
           std::string::npos;
  }));

  // The entry is drainable over the wire with its stage breakdown.
  std::string log = waiter->SlowLog().value();
  EXPECT_NE(log.find("\"threshold_ms\":20"), std::string::npos);
  EXPECT_NE(log.find("\"command\":\"put\""), std::string::npos);
  EXPECT_NE(log.find("\"outcome\":\"TimedOut\""), std::string::npos);
  EXPECT_NE(log.find("\"execute_ns\":"), std::string::npos);

  std::string metrics = server_->MetricsText();
  EXPECT_NE(metrics.find("asset_server_slow_request_threshold_ms 20"),
            std::string::npos);
  // "\n"-anchored so the needle skips the # HELP line.
  size_t pos = metrics.find("\nasset_server_slow_requests_total ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GE(std::stoll(metrics.substr(
                pos + strlen("\nasset_server_slow_requests_total "))),
            1);
}

TEST_F(ServerNetTest, ManyConnectionsConcurrently) {
  Server::Options opts;
  opts.workers = 2;
  StartServer(opts);
  constexpr int kClients = 16;
  constexpr int kTxnsEach = 10;
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto c = Client::Connect("127.0.0.1", server_->port()).value();
      for (int j = 0; j < kTxnsEach; ++j) {
        if (!c->Begin().ok()) continue;
        ObjectId oid = c->Create({static_cast<uint8_t>(j)}).value();
        if (c->Get(oid).ok() && c->Commit().ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(commits.load(), kClients * kTxnsEach);
  EXPECT_EQ(db_->ActiveTransactions(), 0u);
}

// --- Durable acks (docs/ROBUSTNESS.md, "The ack rule") ------------------

TEST_F(ServerNetTest, StrictCommitReplyWaitsForItsFsync) {
  Server::Options opts;
  opts.workers = 1;
  StartDurableServer("asset_net_ack_rule", opts);
  FsyncLatch latch;
  ScopedSysHooks guard(latch.hooks());
  auto c = Connect();
  Tid t = c->Begin().value();
  ObjectId oid = c->Create({1}).value();
  ASSERT_TRUE(c->Put(oid, {2}).ok());

  // Frames are counted when a reply is encoded, bytes once sent.
  const server::ServerStats& st = server_->stats();
  const uint64_t frames_before = st.frames_out.load();
  uint64_t bytes_in_fsync = 0, frames_in_fsync = 0;
  latch.inside = [&] {
    bytes_in_fsync = st.bytes_out.load();
    frames_in_fsync = st.frames_out.load();
  };
  latch.Arm();
  c->Send(Command::Commit());
  ASSERT_TRUE(c->Flush().ok());
  ASSERT_TRUE(latch.WaitEntered());
  // The commit is applied, but its record is not durable yet, so its
  // reply was not even encoded...
  EXPECT_EQ(frames_in_fsync, frames_before);
  EXPECT_TRUE(db_->IsCommitted(t));
  latch.Release();

  Reply commit = c->Receive().value();
  EXPECT_EQ(commit.code, StatusCode::kOk) << commit.message;
  EXPECT_EQ(st.frames_out.load(), frames_before + 1);
  // ...and every byte of it left the server after the fsync began.
  std::vector<uint8_t> payload, frame;
  api::EncodeReply(Reply::FromStatus(Status::OK()), &payload);
  api::AppendFrame(payload, &frame);
  EXPECT_TRUE(Eventually([&] {
    return st.bytes_out.load() == bytes_in_fsync + frame.size();
  })) << st.bytes_out.load() << " bytes out, " << bytes_in_fsync
      << " before the fsync";
  c.reset();
  server_.reset();  // join all traffic before the hook dies
  db_.reset();
}

TEST_F(ServerNetTest, DisconnectWithGatedReplyKeepsTheCommit) {
  Server::Options opts;
  opts.workers = 1;
  StartDurableServer("asset_net_gated_disconnect", opts);
  ObjectId oid;
  Tid t;
  {
    FsyncLatch latch;
    ScopedSysHooks guard(latch.hooks());
    auto c = Connect();
    ASSERT_TRUE(c->Begin().ok());
    oid = c->Create({1}).value();
    ASSERT_TRUE(c->Commit().ok());

    t = c->Begin().value();
    ASSERT_TRUE(c->Put(oid, {7}).ok());
    latch.Arm();
    c->Send(Command::Commit());
    ASSERT_TRUE(c->Flush().ok());
    ASSERT_TRUE(latch.WaitEntered());
    c.reset();  // the client hangs up while its commit reply is gated
    latch.Release();
    EXPECT_TRUE(Eventually(
        [&] { return server_->stats().connections_closed.load() >= 1; }));
    EXPECT_EQ(server_->stats().txns_aborted_on_close.load(), 0u);
    EXPECT_TRUE(db_->IsCommitted(t));
    server_.reset();
    db_.reset();
  }

  db_ = Database::Open(DurableOptions("asset_net_gated_disconnect")).value();
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->Read(oid).value(), std::vector<uint8_t>{7});
  ASSERT_TRUE(txn->Commit().ok());
}

TEST_F(ServerNetTest, PipelinedStrictCommitsShareFsyncs) {
  Server::Options opts;
  opts.workers = 1;
  StartDurableServer("asset_net_group_commit", opts);
  constexpr int kConns = 8, kRounds = 4, kTxnsPerRound = 8;
  std::vector<std::unique_ptr<Client>> conns;
  std::vector<ObjectId> oids;
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(Connect());
    ASSERT_TRUE(conns.back()->Begin().ok());
    oids.push_back(conns.back()->Create({0}).value());
    ASSERT_TRUE(conns.back()->Commit().ok());
  }

  const KernelStats::Snapshot before = db_->Stats();
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kConns; ++i) {
      for (int k = 0; k < kTxnsPerRound; ++k) {
        conns[i]->Send(Command::Begin());
        conns[i]->Send(Command::Put(
            oids[i], std::vector<uint8_t>{static_cast<uint8_t>(r * 8 + k)}));
        conns[i]->Send(Command::Commit());
      }
      ASSERT_TRUE(conns[i]->Flush().ok());
    }
    for (int i = 0; i < kConns; ++i) {
      for (int k = 0; k < 3 * kTxnsPerRound; ++k) {
        Reply reply = conns[i]->Receive().value();
        ASSERT_TRUE(reply.ok()) << reply.message;
      }
    }
  }
  const KernelStats::Snapshot after = db_->Stats();
  const uint64_t commits = after.txns_committed - before.txns_committed;
  const uint64_t fsyncs = after.wal_fsyncs - before.wal_fsyncs;
  EXPECT_EQ(commits, static_cast<uint64_t>(kConns * kRounds * kTxnsPerRound));
  // One durability call per epoll round covers every commit the round
  // applied; an fsync per commit would read fsyncs == commits.
  EXPECT_LE(fsyncs, commits / 2) << fsyncs << " fsyncs for " << commits
                                 << " commits";
}

TEST_F(ServerNetTest, ProtocolErrorWaitsBehindAGatedReply) {
  Server::Options opts;
  opts.workers = 1;
  StartDurableServer("asset_net_gated_protocol_error", opts);
  ObjectId oid;
  Tid t;
  {
    FsyncLatch latch;
    ScopedSysHooks guard(latch.hooks());
    RawConn raw(server_->port());
    raw.SendCommand(Command::Hello());
    ASSERT_TRUE(raw.ReadReply().has_value());
    raw.SendCommand(Command::Begin());
    ASSERT_TRUE(raw.ReadReply().value().ok());
    raw.SendCommand(Command::Create(std::vector<uint8_t>{1}));
    oid = raw.ReadReply().value().u64;
    raw.SendCommand(Command::Commit());
    ASSERT_TRUE(raw.ReadReply().value().ok());

    // One send: a strict commit's transaction, then a garbage frame.
    const server::ServerStats& st = server_->stats();
    const uint64_t frames_before = st.frames_out.load();
    uint64_t frames_in_fsync = 0;
    latch.inside = [&] { frames_in_fsync = st.frames_out.load(); };
    std::vector<uint8_t> batch, payload;
    for (const Command& cmd :
         {Command::Begin(), Command::Put(oid, std::vector<uint8_t>{7}),
          Command::Commit()}) {
      payload.clear();
      api::EncodeCommand(cmd, &payload);
      api::AppendFrame(payload, &batch);
    }
    api::AppendFrame(std::vector<uint8_t>{0xFF, 0xEE, 0xDD}, &batch);
    latch.Arm();
    raw.SendBytes(batch);
    ASSERT_TRUE(latch.WaitEntered());
    // Begin's and Put's replies are encoded; the commit's is held by its
    // gate, and the error reply behind it.
    EXPECT_EQ(frames_in_fsync, frames_before + 2);
    latch.Release();

    auto begin = raw.ReadReply();
    ASSERT_TRUE(begin.has_value() && begin->ok());
    t = begin->u64;
    auto put = raw.ReadReply();
    ASSERT_TRUE(put.has_value() && put->ok());
    auto commit = raw.ReadReply();
    ASSERT_TRUE(commit.has_value());
    EXPECT_EQ(commit->code, StatusCode::kOk) << commit->message;
    auto error = raw.ReadReply();
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->code, StatusCode::kInvalidArgument) << error->message;
    EXPECT_TRUE(raw.WaitForClose());
    EXPECT_TRUE(db_->IsCommitted(t));
    server_.reset();  // join all traffic before the hook dies
    db_.reset();
  }

  db_ = Database::Open(DurableOptions("asset_net_gated_protocol_error"))
            .value();
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->Read(oid).value(), std::vector<uint8_t>{7});
  ASSERT_TRUE(txn->Commit().ok());
}

/// The `_count` sample of one stage summary in a metrics text; -1 if
/// the summary is absent.
int64_t StageCount(const std::string& metrics, const std::string& command,
                   const std::string& stage) {
  const std::string needle = "asset_server_stage_ns_count{command=\"" +
                             command + "\",stage=\"" + stage + "\"} ";
  const size_t pos = metrics.find(needle);
  if (pos == std::string::npos) return -1;
  return std::stoll(metrics.substr(pos + needle.size()));
}

TEST_F(ServerNetTest, GatedCommitsFlushStageCoversItsHold) {
  Server::Options opts;
  opts.workers = 1;
  opts.slow_request_threshold = std::chrono::milliseconds(20);
  StartDurableServer("asset_net_gated_slow", opts);
  FsyncLatch latch;
  ScopedSysHooks guard(latch.hooks());
  auto c = Connect();
  ASSERT_TRUE(c->Begin().ok());
  ObjectId oid = c->Create({1}).value();
  ASSERT_TRUE(c->Put(oid, {2}).ok());

  latch.Arm();
  c->Send(Command::Commit());
  ASSERT_TRUE(c->Flush().ok());
  ASSERT_TRUE(latch.WaitEntered());
  const auto held_from = std::chrono::steady_clock::now();
  // A held commit is not counted in any stage yet.
  const std::string during = server_->MetricsText();
  for (const char* stage : {"queue", "execute", "flush"}) {
    EXPECT_EQ(StageCount(during, "commit", stage), -1) << stage;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const int64_t hold_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - held_from)
          .count();
  latch.Release();
  ASSERT_TRUE(c->Receive().value().ok());

  // The commit is settled, and so captured, once its reply bytes left
  // the socket, which can trail the client's Receive by a beat.
  const testjson::Value* commit = nullptr;
  testjson::Value log;
  ASSERT_TRUE(Eventually([&] {
    if (!testjson::ParseJson(server_->SlowLogJson(), &log)) return false;
    for (const testjson::Value& entry : log.Find("slow_requests")->arr) {
      if (entry.Find("command")->str == "commit") commit = &entry;
    }
    return commit != nullptr;
  }));
  EXPECT_EQ(commit->Find("outcome")->str, "OK");
  EXPECT_GE(commit->Find("flush_ns")->number, static_cast<double>(hold_ns));

  // No Begin was shed, so every command's three stages counted the same
  // requests: each is counted once its reply reached the socket.
  const std::string metrics = server_->MetricsText();
  for (const char* command : {"hello", "begin", "create", "put", "commit"}) {
    const int64_t queue = StageCount(metrics, command, "queue");
    EXPECT_GE(queue, 1) << command;
    EXPECT_EQ(StageCount(metrics, command, "execute"), queue) << command;
    EXPECT_EQ(StageCount(metrics, command, "flush"), queue) << command;
  }
  c.reset();
  server_.reset();  // join all traffic before the hook dies
  db_.reset();
}

}  // namespace
}  // namespace asset
