#include "ledger.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "api/command.h"
#include "api/session.h"
#include "client/client.h"
#include "core/database_internal.h"
#include "models/nested.h"
#include "server/server.h"
#include "workloads.h"

namespace asset_bench {

using asset::Database;
using asset::ObjectId;
using asset::Result;
using asset::Status;
namespace api = asset::api;

double Ledger::Row(const std::string& name) const {
  for (const auto& r : rows) {
    if (r.name == name) return r.us_per_txn;
  }
  return 0;
}

namespace {

/// Runs the request's ops through one boundary's get/put/add calls.
template <typename Get, typename Put, typename Add>
Status ApplyOps(const Request& r, const std::vector<ObjectId>& oids, Get&& get,
                Put&& put, Add&& add) {
  for (const Op& op : r.ops) {
    const ObjectId oid = oids[op.slot];
    switch (op.kind) {
      case Op::kGet:
        ASSET_RETURN_NOT_OK(get(oid).status());
        break;
      case Op::kPut:
        ASSET_RETURN_NOT_OK(
            put(oid, DurablePayload(0, static_cast<uint64_t>(op.arg))));
        break;
      case Op::kAdd:
        ASSET_RETURN_NOT_OK(add(oid, op.arg));
        break;
      case Op::kRmw: {
        auto v = get(oid);
        if (!v.ok()) return v.status();
        ASSET_RETURN_NOT_OK(put(oid, AddToLeading(std::move(*v), op.arg)));
        break;
      }
    }
  }
  return Status::OK();
}

/// One ledger row: a boundary's transaction function and its samples.
struct Row {
  Row(std::string n, std::function<Status(const Request&)> fn)
      : name(std::move(n)), txn(std::move(fn)) {}

  std::string name;
  std::function<Status(const Request&)> txn;
  asset::Random rng{0};
  std::vector<double> us;
};

/// Times every row's transactions. The rows take turns in short slices,
/// so drift in the machine's state (frequency, a checkpoint, the
/// scheduler) lands on every row alike. Each row replays the shape's
/// stream from the same seed.
Status RunRows(std::vector<Row>* rows, const Shape& shape, uint64_t seed,
               double seconds_per_row) {
  constexpr int kSlices = 10;
  constexpr double kWarmupSeconds = 0.05;
  for (Row& row : *rows) row.rng = asset::Random(seed);
  auto run = [&](Row& row, double seconds, bool timed) -> Status {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t now = NowNs(); now < end;) {
      const Request r = shape.next(row.rng);
      const int64_t t0 = NowNs();
      Status s = row.txn(r);
      now = NowNs();
      if (!s.ok()) {
        return Status(s.code(), "ledger row " + row.name + ": " + s.message());
      }
      if (timed) row.us.push_back(static_cast<double>(now - t0) / 1e3);
    }
    return Status::OK();
  };
  for (Row& row : *rows) ASSET_RETURN_NOT_OK(run(row, kWarmupSeconds, false));
  const size_t n = rows->size();
  for (int slice = 0; slice < kSlices; ++slice) {
    for (size_t k = 0; k < n; ++k) {
      Row& row = (*rows)[(k + static_cast<size_t>(slice)) % n];
      ASSET_RETURN_NOT_OK(run(row, seconds_per_row / kSlices, true));
    }
  }
  return Status::OK();
}

/// Runs `txn` over `count` requests of the stream (untimed) and returns
/// `counter()`'s growth per request.
Result<double> CountPerTxn(const std::function<Status(const Request&)>& txn,
                           const std::function<uint64_t()>& counter,
                           const Shape& shape, uint64_t seed, int count) {
  asset::Random rng(seed);
  const uint64_t before = counter();
  for (int i = 0; i < count; ++i) ASSET_RETURN_NOT_OK(txn(shape.next(rng)));
  return static_cast<double>(counter() - before) / count;
}

/// A Begin..Commit transaction through the wire, pipelined: reads go in
/// the first round trip, writes (which may depend on them) and the
/// commit in the second; a transaction without reads takes one round.
class WireTxn {
 public:
  WireTxn(asset::client::Client* client, const std::vector<ObjectId>& oids)
      : client_(client), oids_(oids) {}

  Status operator()(const Request& r) {
    flush_ns_ = receive_ns_ = 0;
    Status s = Run(r);
    flush_us.push_back(static_cast<double>(flush_ns_) / 1e3);
    receive_us.push_back(static_cast<double>(receive_ns_) / 1e3);
    return s;
  }

  /// Per transaction: time in Client::Flush and in Client::Receive.
  std::vector<double> flush_us, receive_us;

 private:
  Status Run(const Request& r) {
    bool reads = false, writes = false;
    for (const Op& op : r.ops) {
      reads = reads || op.kind == Op::kGet || op.kind == Op::kRmw;
      writes = writes || op.kind != Op::kGet;
    }
    client_->Send(api::Command::Begin());
    // values[0] answers the Begin, then one per Get in op order.
    std::vector<std::vector<uint8_t>> values;
    if (reads) {
      for (const Op& op : r.ops) {
        if (op.kind != Op::kPut && op.kind != Op::kAdd) {
          client_->Send(api::Command::Get(oids_[op.slot]));
        }
      }
      if (!writes) client_->Send(api::Command::Commit());
      ASSET_RETURN_NOT_OK(Round(&values));
      if (!writes) return Status::OK();
    }
    size_t v = 1;
    for (const Op& op : r.ops) {
      const ObjectId oid = oids_[op.slot];
      switch (op.kind) {
        case Op::kGet:
          ++v;
          break;
        case Op::kPut:
          client_->Send(api::Command::Put(
              oid, DurablePayload(0, static_cast<uint64_t>(op.arg))));
          break;
        case Op::kAdd:
          client_->Send(api::Command::Add(oid, op.arg));
          break;
        case Op::kRmw:
          client_->Send(
              api::Command::Put(oid, AddToLeading(values[v++], op.arg)));
          break;
      }
    }
    client_->Send(api::Command::Commit());
    return Round(&values);
  }

  /// Flushes the staged commands and collects their replies' bytes.
  Status Round(std::vector<std::vector<uint8_t>>* values) {
    const size_t n = client_->staged();
    const int64_t t0 = NowNs();
    ASSET_RETURN_NOT_OK(client_->Flush());
    const int64_t t1 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      auto reply = client_->Receive();
      if (!reply.ok()) return reply.status();
      ASSET_RETURN_NOT_OK(reply->ToStatus());
      values->push_back(std::move(reply->bytes));
    }
    flush_ns_ += t1 - t0;
    receive_ns_ += NowNs() - t1;
    return Status::OK();
  }

  asset::client::Client* client_;
  const std::vector<ObjectId>& oids_;
  int64_t flush_ns_ = 0;
  int64_t receive_ns_ = 0;
};

/// A loopback server over a database with one connected client.
struct WireEndpoint {
  static Result<std::unique_ptr<WireEndpoint>> Open(
      Database* db, const std::vector<ObjectId>& oids) {
    auto ep = std::make_unique<WireEndpoint>();
    asset::server::Server::Options so;
    so.workers = 2;
    auto server = asset::server::Server::Start(db, so);
    if (!server.ok()) return server.status();
    ep->server = std::move(*server);
    auto client = asset::client::Client::Connect("127.0.0.1",
                                                 ep->server->port());
    if (!client.ok()) return client.status();
    ep->client = std::move(*client);
    ep->txn = std::make_unique<WireTxn>(ep->client.get(), oids);
    return ep;
  }
  ~WireEndpoint() {
    txn.reset();
    client.reset();
    if (server) server->Shutdown();
  }

  /// Server bytes plus frames moved so far, both directions.
  uint64_t Bytes() const {
    return server->stats().bytes_in.load() + server->stats().bytes_out.load();
  }
  uint64_t Frames() const {
    return server->stats().frames_in.load() +
           server->stats().frames_out.load();
  }

  std::unique_ptr<asset::server::Server> server;
  std::unique_ptr<asset::client::Client> client;
  std::unique_ptr<WireTxn> txn;
};

}  // namespace

Result<Ledger> RunLedger(const std::string& workload, const Config& cfg,
                         double row_seconds) {
  const Shape shape = ShapeOf(workload);
  Ledger out;
  {
    asset::Random rng(cfg.seed);
    double ops = 0;
    const int kDraws = 1000;
    for (int i = 0; i < kDraws; ++i) ops += shape.next(rng).ops.size();
    out.ops_per_txn = ops / kDraws;
    out.cmds_per_txn = out.ops_per_txn + 2;  // + Begin and Commit
  }

  // Every row but wire_file runs on one in-memory Database, reaching the
  // store and the kernel through the DatabaseInternal seam, so adjacent
  // rows differ by exactly one layer.
  auto opened = Database::Open(BaseOptions());
  if (!opened.ok()) return opened.status();
  Database& db = **opened;
  auto populated = Populate(db, shape);
  if (!populated.ok()) return populated.status();
  const std::vector<ObjectId>& oids = *populated;
  asset::TransactionManager& tm = asset::KernelOf(db);
  asset::ObjectStore& store = asset::StoreOf(db);

  // wire_file: a second, file-backed database under kStrict.
  const std::string path = cfg.out_dir + "/ledger-" + workload + "-" +
                           std::to_string(getpid()) + ".db";
  auto remove_files = [&] {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".wal", ec);
  };
  remove_files();
  struct Cleanup {
    std::function<void()> fn;
    ~Cleanup() { fn(); }
  } cleanup{remove_files};
  Database::Options file_options = BaseOptions();
  file_options.path = path;
  auto file_db = Database::Open(file_options);
  if (!file_db.ok()) return file_db.status();
  auto file_oids = Populate(**file_db, shape);
  if (!file_oids.ok()) return file_oids.status();

  auto raw = [&](const Request& r) -> Status {
    return ApplyOps(
        r, oids, [&](ObjectId o) { return store.Read(o); },
        [&](ObjectId o, const std::vector<uint8_t>& v) {
          return store.Write(o, v);
        },
        [&](ObjectId o, int64_t d) -> Status {
          // The counter's read-modify-write, keeping its lsn stamp so the
          // kernel row's logged increments still apply after this row.
          auto img = store.Read(o);
          if (!img.ok()) return img.status();
          int64_t v = LeadingInt64(ObjectKind::kCounter, *img) + d;
          std::memcpy(img->data() + sizeof(asset::Lsn), &v, sizeof(v));
          return store.Write(o, *img);
        });
  };
  auto kernel = [&](const Request& r) -> Status {
    auto tid = tm.BeginSession();
    if (!tid.ok()) return tid.status();
    Status s = ApplyOps(
        r, oids, [&](ObjectId o) { return tm.Read(*tid, o); },
        [&](ObjectId o, const std::vector<uint8_t>& v) {
          return tm.Write(*tid, o, v);
        },
        [&](ObjectId o, int64_t d) { return tm.Increment(*tid, o, d); });
    if (!s.ok()) {
      (void)tm.AbortTxn(*tid);
      return s;
    }
    return tm.CommitTxn(*tid);
  };
  auto facade = [&](const Request& r) -> Status {
    auto t = db.Begin();
    if (!t.ok()) return t.status();
    // An early return aborts through the handle's destructor.
    ASSET_RETURN_NOT_OK(ApplyOps(
        r, oids, [&](ObjectId o) { return t->Read(o); },
        [&](ObjectId o, const std::vector<uint8_t>& v) {
          return t->Write(o, v);
        },
        [&](ObjectId o, int64_t d) { return t->Add(o, d); }));
    return t->Commit();
  };

  api::ApiSession session(&db);
  std::vector<double> codec_us;
  int64_t codec_ns = 0;
  // One command: encode, decode, execute, and the reply back.
  auto exec = [&](const api::Command& cmd) -> Result<api::Reply> {
    std::vector<uint8_t> wire;
    const int64_t t0 = NowNs();
    api::EncodeCommand(cmd, &wire);
    auto decoded = api::DecodeCommand(wire);
    const int64_t t1 = NowNs();
    if (!decoded.ok()) return decoded.status();
    api::Reply reply = session.Execute(*decoded);
    const int64_t t2 = NowNs();
    wire.clear();
    api::EncodeReply(reply, &wire);
    auto back = api::DecodeReply(wire);
    codec_ns += (t1 - t0) + (NowNs() - t2);
    if (!back.ok()) return back.status();
    ASSET_RETURN_NOT_OK(back->ToStatus());
    return back;
  };
  auto api_txn = [&](const Request& r) -> Status {
    codec_ns = 0;
    ASSET_RETURN_NOT_OK(exec(api::Command::Begin()).status());
    Status s = ApplyOps(
        r, oids,
        [&](ObjectId o) -> Result<std::vector<uint8_t>> {
          auto rep = exec(api::Command::Get(o));
          if (!rep.ok()) return rep.status();
          return std::move(rep->bytes);
        },
        [&](ObjectId o, const std::vector<uint8_t>& v) {
          return exec(api::Command::Put(o, v)).status();
        },
        [&](ObjectId o, int64_t d) {
          return exec(api::Command::Add(o, d)).status();
        });
    if (!s.ok()) {
      (void)exec(api::Command::Abort());
      return s;
    }
    s = exec(api::Command::Commit()).status();
    codec_us.push_back(static_cast<double>(codec_ns) / 1e3);
    return s;
  };

  auto wire = WireEndpoint::Open(&db, oids);
  if (!wire.ok()) return wire.status();
  auto wire_file = WireEndpoint::Open(file_db->get(), *file_oids);
  if (!wire_file.ok()) return wire_file.status();

  // One op under the calling (root or child) transaction.
  auto in_body = [&db, &oids](const Op& op) {
    (void)ApplyOps(
        Request{{op}}, oids, [&](ObjectId o) { return db.ReadObject(o); },
        [&](ObjectId o, const std::vector<uint8_t>& v) {
          return db.WriteObject(o, v);
        },
        [&](ObjectId o, int64_t d) { return db.Add(o, d); });
  };
  auto flat = [&](const Request& r) -> Status {
    const bool ok = asset::models::RunNestedRoot(db, [&] {
      for (const Op& op : r.ops) in_body(op);
    });
    return ok ? Status::OK() : Status::TxnAborted("flat root aborted");
  };
  auto nested = [&](const Request& r) -> Status {
    const bool ok = asset::models::RunNestedRoot(db, [&] {
      for (const Op& op : r.ops) {
        (void)asset::models::RunSubtransaction(db,
                                               [&in_body, op] { in_body(op); });
      }
    });
    return ok ? Status::OK() : Status::TxnAborted("nested root aborted");
  };

  std::vector<Row> rows;
  rows.emplace_back("store", raw);
  rows.emplace_back("kernel", kernel);
  rows.emplace_back("database", facade);
  rows.emplace_back("api", api_txn);
  rows.emplace_back("wire", std::ref(*(*wire)->txn));
  rows.emplace_back("wire_file", std::ref(*(*wire_file)->txn));
  rows.emplace_back("flat", flat);
  rows.emplace_back("nested", nested);
  ASSET_RETURN_NOT_OK(RunRows(&rows, shape, cfg.seed, row_seconds));
  for (Row& row : rows) {
    LedgerRow lr;
    lr.name = row.name;
    lr.samples = row.us.size();
    lr.us_per_txn = Quantile(&row.us, 0.5);
    out.rows.push_back(lr);
  }
  out.codec_us_per_txn = Median(std::move(codec_us));
  out.flush_us_per_txn = Median((*wire)->txn->flush_us);
  out.receive_us_per_txn = Median((*wire)->txn->receive_us);

  // Counts, from untimed passes of one row each.
  constexpr int kCountTxns = 1000;
  auto pool = [&](uint64_t asset::BufferPool::Stats::*f) {
    return [&db, f] { return asset::PoolOf(db).stats().*f; };
  };
  auto reads = CountPerTxn(kernel, pool(&asset::BufferPool::Stats::misses),
                           shape, cfg.seed, kCountTxns);
  if (!reads.ok()) return reads.status();
  out.page_reads_per_txn = *reads;
  auto writes =
      CountPerTxn(kernel, pool(&asset::BufferPool::Stats::dirty_writebacks),
                  shape, cfg.seed, kCountTxns);
  if (!writes.ok()) return writes.status();
  out.page_writes_per_txn = *writes;
  WireEndpoint& ep = **wire;
  auto bytes = CountPerTxn(std::ref(*ep.txn), [&] { return ep.Bytes(); },
                           shape, cfg.seed, kCountTxns);
  if (!bytes.ok()) return bytes.status();
  out.server_bytes_per_txn = *bytes;
  auto frames = CountPerTxn(std::ref(*ep.txn), [&] { return ep.Frames(); },
                            shape, cfg.seed, kCountTxns);
  if (!frames.ok()) return frames.status();
  out.server_frames_per_txn = *frames;
  return out;
}

}  // namespace asset_bench
