#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>

#include <unistd.h>

#include "api/command.h"
#include "client/client.h"
#include "harness.h"
#include "models/nested.h"
#include "server/server.h"
#include "storage/object_store.h"

namespace asset_bench {

using asset::Database;
using asset::ObjectId;
using asset::Result;
using asset::Status;
using asset::client::Client;
using asset::server::Server;
namespace api = asset::api;

namespace {

// local_hotspot: ~3x the default 1024-page (8 MiB) buffer pool.
constexpr uint32_t kHotspotAccounts = 200000;
constexpr int64_t kHotspotBalance = 1000;
constexpr double kHotspotReadShare = 0.8;
/// Random::Skewed halving probability: the hottest account takes ~7 % of
/// the picks and the hottest 1 % of accounts about 40 %.
constexpr double kHotspotSkew = 0.85;
/// local_hotspot's bench threads; thread t transfers only between
/// accounts whose slot is t modulo this.
constexpr uint32_t kHotspotLanes = 4;
constexpr uint32_t kDurableObjects = 4096;
constexpr uint32_t kNestedObjects = 1024;
constexpr int kNestedChildren = 4;
constexpr double kNestedChildAbort = 0.1;
constexpr size_t kObjectBytes = 128;
constexpr uint32_t kPopulateBatch = 1000;

/// `k` distinct slots in ascending order: every transaction takes its
/// locks in one global order, so the only possible deadlock is two
/// transactions upgrading a read lock on the same object.
std::vector<uint32_t> SortedSlots(asset::Random& rng, int k, uint32_t n,
                                  double skew) {
  std::vector<uint32_t> out;
  while (static_cast<int>(out.size()) < k) {
    auto s = static_cast<uint32_t>(skew > 0 ? rng.Skewed(n, skew)
                                            : rng.Uniform(n));
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One local_hotspot transaction of bench thread `lane`. Reads pick from
/// every account; a transfer picks from the lane's own accounts (slot
/// ≡ lane mod kHotspotLanes), so no two transfers in flight share an
/// account and none can deadlock upgrading a read lock. Readers never
/// upgrade, so the workload is deadlock-free while readers and writers
/// still wait on each other's locks on the hot accounts.
Request HotspotRequest(asset::Random& rng, uint32_t lane) {
  Request r;
  if (rng.Bernoulli(kHotspotReadShare)) {
    for (uint32_t s : SortedSlots(rng, 4, kHotspotAccounts, kHotspotSkew)) {
      r.ops.push_back(Op{Op::kGet, s, 0});
    }
  } else {
    auto s = SortedSlots(rng, 2, kHotspotAccounts / kHotspotLanes,
                         kHotspotSkew);
    for (uint32_t& slot : s) slot = slot * kHotspotLanes + lane;
    const auto amount = static_cast<int64_t>(rng.Range(1, 100));
    const bool up = rng.Bernoulli(0.5);  // direction of the transfer
    r.ops.push_back(Op{Op::kRmw, s[0], up ? amount : -amount});
    r.ops.push_back(Op{Op::kRmw, s[1], up ? -amount : amount});
  }
  return r;
}

Request NestedRequest(asset::Random& rng) {
  Request r;
  for (uint32_t s : SortedSlots(rng, kNestedChildren, kNestedObjects, 0)) {
    Op op{Op::kRmw, s, 1};
    op.abort = rng.Bernoulli(kNestedChildAbort);
    r.ops.push_back(op);
  }
  return r;
}

}  // namespace

// --- Shapes and helpers ---------------------------------------------------

Shape ShapeOf(const std::string& name) {
  Shape s;
  if (name == "wire_counter") {
    s.kind = ObjectKind::kCounter;
    s.objects = 1;
    s.next = [](asset::Random&) {
      return Request{{Op{Op::kAdd, 0, 1}}};
    };
  } else if (name == "wire_durable") {
    s.kind = ObjectKind::kBytes;
    s.objects = kDurableObjects;
    auto seq = std::make_shared<uint64_t>(0);
    s.next = [seq](asset::Random& rng) {
      auto slot = static_cast<uint32_t>(rng.Uniform(kDurableObjects));
      return Request{{Op{Op::kPut, slot, static_cast<int64_t>(++*seq)}}};
    };
  } else if (name == "local_hotspot") {
    s.kind = ObjectKind::kBytes;
    s.objects = kHotspotAccounts;
    s.initial = kHotspotBalance;
    s.next = [](asset::Random& rng) { return HotspotRequest(rng, 0); };
  } else if (name == "nested_trip") {
    s.kind = ObjectKind::kInt64;
    s.objects = kNestedObjects;
    s.next = NestedRequest;
  }
  return s;
}

std::vector<uint8_t> DurablePayload(uint32_t conn, uint64_t seq) {
  std::vector<uint8_t> out(kObjectBytes);
  std::memcpy(out.data(), &seq, sizeof(seq));
  std::memcpy(out.data() + sizeof(seq), &conn, sizeof(conn));
  for (size_t i = 12; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(seq * 31 + conn * 7 + i);
  }
  return out;
}

int64_t LeadingInt64(ObjectKind kind, const std::vector<uint8_t>& bytes) {
  const size_t off = kind == ObjectKind::kCounter ? sizeof(asset::Lsn) : 0;
  int64_t v = 0;
  if (bytes.size() >= off + sizeof(v)) {
    std::memcpy(&v, bytes.data() + off, sizeof(v));
  }
  return v;
}

std::vector<uint8_t> AddToLeading(std::vector<uint8_t> bytes, int64_t delta) {
  int64_t v = 0;
  if (bytes.size() >= sizeof(v)) {
    std::memcpy(&v, bytes.data(), sizeof(v));
    v += delta;
    std::memcpy(bytes.data(), &v, sizeof(v));
  }
  return bytes;
}

std::vector<uint8_t> InitialImage(ObjectKind kind, int64_t v) {
  switch (kind) {
    case ObjectKind::kCounter:
      return asset::ObjectStore::EncodeCounter(asset::kNullLsn, v);
    case ObjectKind::kInt64:
      return Database::Encode(v);
    case ObjectKind::kBytes:
      break;
  }
  std::vector<uint8_t> out(kObjectBytes, 0x5a);
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

Database::Options BaseOptions() {
  Database::Options o;
  o.checkpoint.log_bytes_trigger = 4u << 20;
  return o;
}

Result<std::vector<ObjectId>> Populate(Database& db, const Shape& shape) {
  std::vector<ObjectId> oids;
  oids.reserve(shape.objects);
  const auto image = InitialImage(shape.kind, shape.initial);
  while (oids.size() < shape.objects) {
    auto t = db.Begin();
    if (!t.ok()) return t.status();
    const size_t end =
        std::min<size_t>(shape.objects, oids.size() + kPopulateBatch);
    while (oids.size() < end) {
      auto oid = shape.kind == ObjectKind::kCounter
                     ? t->CreateCounter(shape.initial)
                     : t->CreateObject(image);
      if (!oid.ok()) return oid.status();
      oids.push_back(*oid);
    }
    ASSET_RETURN_NOT_OK(t->Commit());
  }
  return oids;
}

Result<int64_t> SumObjects(Database& db, ObjectKind kind,
                           const std::vector<ObjectId>& oids) {
  int64_t sum = 0;
  for (size_t i = 0; i < oids.size(); i += kPopulateBatch) {
    auto t = db.Begin();
    if (!t.ok()) return t.status();
    const size_t end = std::min(oids.size(), i + kPopulateBatch);
    for (size_t j = i; j < end; ++j) {
      auto bytes = t->Read(oids[j]);
      if (!bytes.ok()) return bytes.status();
      sum += LeadingInt64(kind, *bytes);
    }
    ASSET_RETURN_NOT_OK(t->Commit());
  }
  return sum;
}

namespace {

// --- Wire workloads ---------------------------------------------------------

/// A server over the database and `connections` clients, split over
/// min(2, connections) bench threads. Every step flushes one pipelined
/// Begin+op+Commit batch on each of the thread's connections, then
/// collects the replies; a batch's latency runs from its flush to its
/// last reply.
class WireWorkload : public Workload {
 public:
  WireWorkload(std::string name, bool durable)
      : name_(std::move(name)), durable_(durable) {}

  ~WireWorkload() override {
    StopFrontDoor();
    db_.reset();
    RemoveFiles();
  }

  Status Setup(const Config& cfg, int trial) override {
    Database::Options o = BaseOptions();
    if (durable_) {
      path_ = cfg.out_dir + "/" + name_ + "-" + std::to_string(getpid()) +
              "-" + std::to_string(trial) + ".db";
      RemoveFiles();
      o.path = path_;
    }
    options_ = o;
    auto db = Database::Open(o);
    if (!db.ok()) return db.status();
    db_ = std::move(*db);

    const int n = std::max(1, cfg.connections);
    Shape shape = ShapeOf(name_);
    if (!durable_) shape.objects = static_cast<uint32_t>(n);  // one counter each
    kind_ = shape.kind;
    auto oids = Populate(*db_, shape);
    if (!oids.ok()) return oids.status();
    oids_ = std::move(*oids);

    Server::Options so;
    so.workers = 2;
    auto server = Server::Start(db_.get(), so);
    if (!server.ok()) return server.status();
    server_ = std::move(*server);

    threads_ = std::min(2, n);
    conns_.clear();
    for (int c = 0; c < n; ++c) {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) return client.status();
      Conn conn;
      conn.client = std::move(*client);
      conn.index = static_cast<uint32_t>(c);
      conn.lane = 100 * static_cast<uint32_t>(c % threads_ + 1) +
                  static_cast<uint32_t>(c) + 1;
      conns_.push_back(std::move(conn));
    }
    // wire_durable: connection c owns a disjoint slice of the objects.
    slice_ = static_cast<uint32_t>(oids_.size()) / static_cast<uint32_t>(n);
    last_acked_.assign(oids_.size(), 0);
    acked_per_conn_.assign(static_cast<size_t>(n), 0);
    return Status::OK();
  }

  int threads() const override { return threads_; }

  Status Step(StepContext& ctx) override {
    Tracer* tr = ctx.tracer();
    std::vector<Conn*> mine;
    for (size_t c = static_cast<size_t>(ctx.thread()); c < conns_.size();
         c += static_cast<size_t>(threads_)) {
      mine.push_back(&conns_[c]);
    }
    for (Conn* c : mine) {
      c->request = ctx.NextRequest();
      c->root = tr != nullptr ? tr->Open("txn", 0, c->request, c->lane) : 0;
      {
        ScopedSpan s(tr, "client.send", c->root, c->request, c->lane);
        c->client->Send(api::Command::Begin());
        if (durable_) {
          c->slot = c->index * slice_ +
                    static_cast<uint32_t>(ctx.rng().Uniform(slice_));
          c->seq = ++c->next_seq;
          c->client->Send(api::Command::Put(
              oids_[c->slot], DurablePayload(c->index, c->seq)));
        } else {
          c->client->Send(api::Command::Add(oids_[c->index], 1));
        }
        c->client->Send(api::Command::Commit());
      }
      c->start_ns = NowNs();
      ScopedSpan s(tr, "client.flush", c->root, c->request, c->lane);
      ASSET_RETURN_NOT_OK(c->client->Flush());
    }
    for (Conn* c : mine) {
      bool ok = true;
      for (int i = 0; i < 3; ++i) {
        ScopedSpan s(tr, "client.receive", c->root, c->request, c->lane);
        auto reply = c->client->Receive();
        if (!reply.ok()) return reply.status();
        ok = ok && reply->ok();
      }
      if (tr != nullptr) tr->Close(c->root);
      if (ok) {
        ++acked_per_conn_[c->index];
        if (durable_) last_acked_[c->slot] = c->seq;
      }
      ctx.Done(c->start_ns, ok);
    }
    return Status::OK();
  }

  Result<double> Restart() override {
    StopFrontDoor();
    const int64_t t0 = NowNs();
    if (durable_) {
      // A clean shutdown, then a cold open of the file: recovery replays
      // the WAL past the last checkpoint.
      db_.reset();
      auto db = Database::Open(options_);
      if (!db.ok()) return db.status();
      db_ = std::move(*db);
    } else {
      ASSET_RETURN_NOT_OK(db_->CrashAndRecover());
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Check(std::vector<std::string>* problems) override {
    auto t = db_->Begin();
    if (!t.ok()) {
      problems->push_back(name_ + ": begin failed: " + t.status().ToString());
      return;
    }
    if (durable_) {
      // Every object holds its last acked (conn, seq) image, or its
      // set-up image if no write to it was acked.
      uint64_t wrong = 0;
      for (size_t i = 0; i < oids_.size(); ++i) {
        auto bytes = t->Read(oids_[i]);
        const auto want =
            last_acked_[i] == 0
                ? InitialImage(kind_, 0)
                : DurablePayload(static_cast<uint32_t>(i) / slice_,
                                 last_acked_[i]);
        if (!bytes.ok() || *bytes != want) ++wrong;
      }
      if (wrong != 0) {
        problems->push_back(name_ + ": " + std::to_string(wrong) +
                            " objects lost their last acked write");
      }
    } else {
      // Each connection's counter equals its committed batches, so the
      // counters sum to every committed batch.
      for (size_t c = 0; c < acked_per_conn_.size(); ++c) {
        auto v = t->GetCounter(oids_[c]);
        if (!v.ok() || static_cast<uint64_t>(*v) != acked_per_conn_[c]) {
          problems->push_back(
              name_ + ": connection " + std::to_string(c) + " committed " +
              std::to_string(acked_per_conn_[c]) + " batches, its counter " +
              (v.ok() ? "reads " + std::to_string(*v) : "is unreadable"));
        }
      }
    }
    (void)t->Commit();
  }

  Database& db() override { return *db_; }

 private:
  struct Conn {
    std::unique_ptr<Client> client;
    uint32_t index = 0;
    uint32_t lane = 0;
    uint64_t next_seq = 0;
    // The batch in flight.
    uint32_t slot = 0;
    uint64_t seq = 0;
    uint64_t request = 0;
    uint64_t root = 0;
    int64_t start_ns = 0;
  };

  /// Clients first, so the server sees clean disconnects.
  void StopFrontDoor() {
    conns_.clear();
    if (server_) server_->Shutdown();
    server_.reset();
  }

  void RemoveFiles() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".wal", ec);
  }

  const std::string name_;
  const bool durable_;
  std::string path_;
  Database::Options options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  std::vector<Conn> conns_;
  ObjectKind kind_ = ObjectKind::kBytes;
  std::vector<ObjectId> oids_;
  std::vector<uint64_t> last_acked_;
  /// Committed batches per connection (each slot written by the
  /// connection's own bench thread).
  std::vector<uint64_t> acked_per_conn_;
  uint32_t slice_ = 0;
  int threads_ = 1;
};

// --- In-process workloads ----------------------------------------------------

/// An in-memory database driven from bench threads in this process.
class InProcessWorkload : public Workload {
 public:
  explicit InProcessWorkload(std::string name) : name_(std::move(name)) {}

  Status Setup(const Config&, int) override {
    db_.reset();
    auto db = Database::Open(BaseOptions());
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    shape_ = ShapeOf(name_);
    auto oids = Populate(*db_, shape_);
    if (!oids.ok()) return oids.status();
    oids_ = std::move(*oids);
    return Status::OK();
  }

  int threads() const override { return 4; }

  Result<double> Restart() override {
    const int64_t t0 = NowNs();
    ASSET_RETURN_NOT_OK(db_->CrashAndRecover());
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  Database& db() override { return *db_; }

 protected:
  /// Appends a problem unless the population sums to `want`.
  void CheckSum(int64_t want, const char* what,
                std::vector<std::string>* problems) {
    auto sum = SumObjects(*db_, shape_.kind, oids_);
    if (!sum.ok()) {
      problems->push_back(name_ + ": sum failed: " + sum.status().ToString());
    } else if (*sum != want) {
      problems->push_back(name_ + ": " + what + ": objects sum to " +
                          std::to_string(*sum) + ", expected " +
                          std::to_string(want));
    }
  }

  const std::string name_;
  std::unique_ptr<Database> db_;
  Shape shape_;
  std::vector<ObjectId> oids_;
};

/// local_hotspot: 4 threads of db.Begin() session transactions over
/// 200k skew-picked accounts; 80 % read 4 accounts, 20 % move an amount
/// between 2 of the thread's own accounts. Each transaction runs once; a
/// victim (none is expected, see HotspotRequest) counts as failed.
class HotspotWorkload : public InProcessWorkload {
 public:
  HotspotWorkload() : InProcessWorkload("local_hotspot") {}

  int threads() const override { return kHotspotLanes; }

  Status Step(StepContext& ctx) override {
    const Request r =
        HotspotRequest(ctx.rng(), static_cast<uint32_t>(ctx.thread()));
    Tracer* tr = ctx.tracer();
    const uint64_t req = ctx.NextRequest();
    const int64_t start = NowNs();
    const uint64_t root = tr != nullptr ? tr->Open("txn", 0, req) : 0;
    const bool committed = RunOnce(r, tr, root, req).ok();
    if (tr != nullptr) tr->Close(root);
    ctx.Done(start, committed);
    return Status::OK();
  }

  void Check(std::vector<std::string>* problems) override {
    CheckSum(static_cast<int64_t>(shape_.objects) * shape_.initial,
             "total balance not conserved", problems);
  }

 private:
  Status RunOnce(const Request& r, Tracer* tr, uint64_t root, uint64_t req) {
    auto begun = [&] {
      ScopedSpan s(tr, "db.begin", root, req);
      return db_->Begin();
    }();
    if (!begun.ok()) return begun.status();
    asset::Txn& t = *begun;
    auto fail = [&](Status s) {
      ScopedSpan a(tr, "txn.abort", root, req);
      (void)t.Abort();
      return s;
    };
    for (const Op& op : r.ops) {
      const ObjectId oid = oids_[op.slot];
      auto value = [&] {
        ScopedSpan s(tr, "txn.get", root, req);
        return t.Read(oid);
      }();
      if (!value.ok()) return fail(value.status());
      if (op.kind != Op::kRmw) continue;
      Status w = [&] {
        ScopedSpan s(tr, "txn.put", root, req);
        return t.Write(oid, AddToLeading(std::move(*value), op.arg));
      }();
      if (!w.ok()) return fail(w);
    }
    ScopedSpan s(tr, "txn.commit", root, req);
    return t.Commit();
  }
};

/// nested_trip: 4 threads, each running models::RunNestedRoot roots of
/// 4 RunSubtransaction children; each child increments one of 1024
/// shared int64 objects, and a seeded 10 % of children abort themselves
/// after writing, so their undo runs.
class NestedWorkload : public InProcessWorkload {
 public:
  NestedWorkload() : InProcessWorkload("nested_trip") {}

  Status Step(StepContext& ctx) override {
    const Request r = shape_.next(ctx.rng());
    Tracer* tr = ctx.tracer();
    const uint64_t req = ctx.NextRequest();
    const int64_t start = NowNs();
    const uint64_t root = tr != nullptr ? tr->Open("txn", 0, req) : 0;
    int64_t increments = 0;  // of children that committed into the root
    bool committed = false;
    {
      ScopedSpan m(tr, "models.root", root, req);
      const uint64_t parent = m.id();
      committed = asset::models::RunNestedRoot(*db_, [&] {
        for (const Op& op : r.ops) {
          ScopedSpan sub(tr, "models.subtxn", parent, req);
          Status s = asset::models::RunSubtransaction(
              *db_, Child(op, tr, sub.id(), req),
              asset::models::OnChildAbort::kReportOnly);
          if (s.ok()) increments += op.arg;
        }
      });
    }
    if (committed) expected_.fetch_add(increments);
    if (tr != nullptr) tr->Close(root);
    ctx.Done(start, committed);
    return Status::OK();
  }

  void Check(std::vector<std::string>* problems) override {
    CheckSum(expected_.load(), "increments of committed children", problems);
  }

 private:
  /// The child body. It runs on a kernel worker thread and may outlive
  /// the parent's wait once it aborts itself, so it captures by value and
  /// aborts as its very last action.
  std::function<void()> Child(const Op& op, Tracer* tr, uint64_t parent,
                              uint64_t req) {
    return [db = db_.get(), oid = oids_[op.slot], op, tr, parent, req] {
      auto v = [&] {
        ScopedSpan s(tr, "txn.get", parent, req);
        return db->Get<int64_t>(oid);
      }();
      if (!v.ok()) return;  // deadlock victim: the child aborts
      Status w = [&] {
        ScopedSpan s(tr, "txn.put", parent, req);
        return db->Put<int64_t>(oid, *v + op.arg);
      }();
      if (w.ok() && op.abort) db->Abort(Database::Self());
    };
  }

  std::atomic<int64_t> expected_{0};
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "wire_counter", "wire_durable", "local_hotspot", "nested_trip"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "wire_counter") {
    return std::make_unique<WireWorkload>(name, /*durable=*/false);
  }
  if (name == "wire_durable") {
    return std::make_unique<WireWorkload>(name, /*durable=*/true);
  }
  if (name == "local_hotspot") return std::make_unique<HotspotWorkload>();
  if (name == "nested_trip") return std::make_unique<NestedWorkload>();
  return nullptr;
}

}  // namespace asset_bench
