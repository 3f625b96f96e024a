#ifndef ASSET_CORE_DATABASE_H_
#define ASSET_CORE_DATABASE_H_

/// \file database.h
/// The assembled system: disk, page cache, WAL, object store, and the
/// ASSET transaction kernel, behind one application-facing facade.
///
/// This is the surface applications program against — the Ode-database
/// role in the paper, minus the O++ compiler (whose generated code
/// src/models/ supplies as a library). Everything user-facing goes
/// through `Database`, the RAII `Txn` handle, or the command API
/// (src/api/) that mirrors this class onto the wire; the raw subsystem
/// references (TransactionManager, ObjectStore, LogManager, BufferPool)
/// are reachable only through the `DatabaseInternal` seam
/// (database_internal.h), which is for tests and in-tree subsystems.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/object_set.h"
#include "common/op_set.h"
#include "common/result.h"
#include "common/status.h"
#include "core/introspection.h"
#include "core/statistics.h"
#include "core/transaction_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace asset {

class Database;
class DatabaseInternal;

/// A movable RAII handle over one caller-driven transaction.
///
/// `db.Begin()` opens the transaction; the holder issues data operations
/// through the handle from one thread at a time and finishes with
/// Commit() or Abort(). A handle destroyed while still active aborts its
/// transaction — an early `return` or a thrown exception can never leak
/// a lock-holding transaction. The handle must not outlive the Database
/// that issued it.
///
/// Move semantics: moving transfers ownership of the transaction (and
/// the last_status record); the moved-from handle reads as inactive —
/// `bool(moved_from)` is false, id() is kNullTid, and every operation
/// on it returns IllegalState. Move-assigning over an active handle
/// aborts the overwritten transaction first, exactly like destruction.
///
/// This is sugar over the kernel's session transactions
/// (TransactionManager::BeginSession); the tid is exposed for mixing
/// with the §2 primitives (delegation, permits, dependencies) on
/// Database.
class Txn {
 public:
  Txn() = default;
  Txn(Txn&& other) noexcept
      : db_(other.db_),
        tid_(other.tid_),
        last_status_(std::move(other.last_status_)) {
    other.db_ = nullptr;
    other.tid_ = kNullTid;
    other.last_status_ = Status::OK();
  }
  Txn& operator=(Txn&& other) noexcept {
    if (this != &other) {
      AbortIfActive();
      db_ = other.db_;
      tid_ = other.tid_;
      last_status_ = std::move(other.last_status_);
      other.db_ = nullptr;
      other.tid_ = kNullTid;
      other.last_status_ = Status::OK();
    }
    return *this;
  }
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  /// Aborts the transaction if still active.
  ~Txn() { AbortIfActive(); }

  /// The underlying transaction id (kNullTid for a default-constructed
  /// or moved-from handle).
  Tid id() const { return tid_; }

  /// True while the handle owns a transaction that has not been
  /// committed or aborted through it.
  bool active() const { return db_ != nullptr && tid_ != kNullTid; }

  /// `if (txn) ...` — same as active().
  explicit operator bool() const { return active(); }

  /// The Status of the most recent operation issued through this
  /// handle (including Commit/Abort). OK on a fresh or moved-from
  /// handle. Lets call sites chain `t.Put(..); t.Put(..);` and check
  /// once, client-handle style.
  const Status& last_status() const { return last_status_; }

  /// Blocking commit; the handle becomes inactive either way. Returns
  /// the kernel's verdict (kTxnAborted carries the abort reason). A
  /// non-null `gate` defers a strict commit's durability wait to the
  /// caller, as TransactionManager::CommitTxn describes.
  Status Commit(Lsn* gate = nullptr);

  /// Aborts; the handle becomes inactive. OK if already aborted.
  Status Abort();

  // --- Data operations under this transaction --------------------------
  //
  // Each returns IllegalState on an inactive (finished or moved-from)
  // handle; otherwise it is the matching Database call under this tid.
  // Every outcome is also recorded in last_status().

  Result<std::vector<uint8_t>> Read(ObjectId oid);
  Status Write(ObjectId oid, std::span<const uint8_t> data);
  Result<ObjectId> CreateObject(std::span<const uint8_t> data);
  Status Delete(ObjectId oid);

  template <typename T>
  Result<ObjectId> Create(const T& value);
  template <typename T>
  Result<T> Get(ObjectId oid);
  template <typename T>
  Status Put(ObjectId oid, const T& value);

  Result<ObjectId> CreateCounter(int64_t initial);
  Status Add(ObjectId oid, int64_t delta);
  Result<int64_t> GetCounter(ObjectId oid);

 private:
  friend class Database;
  Txn(Database* db, Tid tid) : db_(db), tid_(tid) {}

  void AbortIfActive() {
    if (active()) Abort();
  }

  Status CheckActive() const {
    return active() ? Status::OK()
                    : Status::IllegalState("transaction handle is inactive");
  }

  /// Records an operation's outcome in last_status() on the way out.
  Status Track(Status s) {
    last_status_ = s;
    return s;
  }
  template <typename T>
  Result<T> Track(Result<T> r) {
    last_status_ = r.status();
    return r;
  }

  Database* db_ = nullptr;
  Tid tid_ = kNullTid;
  Status last_status_;
};

/// One database instance. Construction wires the storage stack and the
/// kernel; destruction aborts stragglers.
class Database {
 public:
  /// Controls the online (fuzzy) checkpointer. Checkpoints never block
  /// user traffic; they bound recovery time and let the WAL prefix be
  /// reclaimed.
  struct CheckpointOptions {
    /// Fire a background checkpoint every `interval` (0 = no timer).
    std::chrono::milliseconds interval{0};
    /// Fire a background checkpoint after this many new WAL bytes since
    /// the last one (0 = no byte trigger). With neither trigger set, no
    /// background thread runs; Checkpoint() still works manually.
    size_t log_bytes_trigger = 0;
    /// Physically drop the WAL prefix made redundant by each completed
    /// checkpoint.
    bool truncate_wal = true;
    /// How long a checkpoint may wait for in-flight data operations at
    /// or below its cut point to finish applying (replaces the old
    /// hard-coded 30000 ms quiescence wait — the fuzzy protocol drains
    /// individual operations, never whole transactions).
    std::chrono::milliseconds drain_timeout{30000};
  };

  /// The one validated options surface: storage, kernel, and
  /// checkpointer knobs nest here, and `Validate()` is the single gate
  /// every `Open()` goes through — nonsense (a zero-page pool, a
  /// negative timeout) is rejected up front instead of misbehaving
  /// later. Server options (src/server/) follow the same pattern.
  struct Options {
    /// Page frames in the cache.
    size_t buffer_pool_pages = 1024;
    /// Backing file; empty means an in-memory device.
    std::string path;
    TransactionManager::Options txn;
    CheckpointOptions checkpoint;

    /// OK iff every knob (including the nested kernel, lock, and
    /// checkpoint options) is in its legal range.
    Status Validate() const;
  };

  /// Opens (or creates) a database. Fails with kInvalidArgument if
  /// `options.Validate()` does.
  static Result<std::unique_ptr<Database>> Open(Options options);
  /// Opens with default options (in-memory device).
  static Result<std::unique_ptr<Database>> Open();

  ~Database();

  // --- RAII transactions -------------------------------------------------

  /// Opens a caller-driven transaction and returns its owning handle.
  /// The transaction runs on the caller's thread; finish it with
  /// Txn::Commit() or Txn::Abort(), or let the destructor abort it.
  Result<Txn> Begin() {
    auto tid = tm_->BeginSession();
    if (!tid.ok()) return tid.status();
    return Txn(this, *tid);
  }

  // --- Paper primitives (§2.1) -----------------------------------------
  //
  // The raw initiate/begin/commit/wait/abort surface, re-exported from
  // the kernel so applications (and the command API) never hold a
  // TransactionManager reference. See transaction_manager.h for the
  // full contracts; the bool forms are the paper's bare verdicts, the
  // *Txn forms preserve the reason.

  /// initiate(f, args): registers a transaction to run f(args...) when
  /// begun. Returns kNullTid if the transaction table is full.
  template <typename F, typename... Args>
  Tid Initiate(F&& f, Args&&... args) {
    return tm_->Initiate(std::forward<F>(f), std::forward<Args>(args)...);
  }
  /// Type-erased initiate.
  Tid InitiateFn(std::function<void()> fn) {
    return tm_->InitiateFn(std::move(fn));
  }

  /// begin(t) / begin(t1..tn): the group form is all-or-nothing.
  bool Begin(Tid t) { return tm_->Begin(t); }
  bool Begin(std::initializer_list<Tid> ts) { return tm_->Begin(ts); }
  Status BeginTxn(Tid t) { return tm_->BeginTxn(t); }

  /// commit(t): blocking; waits for completion and dependency
  /// resolution.
  bool Commit(Tid t) { return tm_->Commit(t); }
  Status CommitTxn(Tid t) { return tm_->CommitTxn(t); }

  /// wait(t): 1 once t's code completed (or t committed), 0 on abort.
  int Wait(Tid t) { return tm_->Wait(t); }

  /// abort(t): true unless t already committed.
  bool Abort(Tid t) { return tm_->Abort(t); }
  Status AbortTxn(Tid t) { return tm_->AbortTxn(t); }

  /// The tid of the transaction running on the calling thread
  /// (kNullTid outside any transaction body).
  static Tid Self() { return TransactionManager::Self(); }

  /// Status queries.
  TxnStatus StatusOf(Tid t) const { return tm_->GetStatus(t); }
  bool IsCommitted(Tid t) const { return tm_->IsCommitted(t); }
  bool IsAborted(Tid t) const { return tm_->IsAborted(t); }
  bool IsActiveTxn(Tid t) const { return tm_->IsActiveTxn(t); }
  bool IsCompleted(Tid t) const { return tm_->IsCompleted(t); }
  /// Count of begun-but-unterminated transactions.
  size_t ActiveTransactions() const { return tm_->ActiveTransactions(); }

  // --- New primitives (§2.2) --------------------------------------------

  /// delegate(ti, tj, ob_set) / delegate(ti, tj).
  Status Delegate(Tid ti, Tid tj, const ObjectSet& objs) {
    return tm_->Delegate(ti, tj, objs);
  }
  Status Delegate(Tid ti, Tid tj) { return tm_->Delegate(ti, tj); }

  /// The four permit forms of §2.2.
  Status Permit(Tid ti, Tid tj, const ObjectSet& objs, OpSet ops) {
    return tm_->Permit(ti, tj, objs, ops);
  }
  Status Permit(Tid ti, Tid tj, OpSet ops) {
    return tm_->Permit(ti, tj, ops);
  }
  Status Permit(Tid ti, Tid tj) { return tm_->Permit(ti, tj); }
  Status PermitAny(Tid ti, const ObjectSet& objs, OpSet ops) {
    return tm_->PermitAny(ti, objs, ops);
  }

  /// form_dependency(type, ti, tj): tj becomes dependent on ti.
  Status FormDependency(DependencyType type, Tid ti, Tid tj) {
    return tm_->FormDependency(type, ti, tj);
  }

  // --- Typed object helpers (trivially-copyable values) ----------------

  template <typename T>
  static std::vector<uint8_t> Encode(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Encode requires a trivially copyable type");
    std::vector<uint8_t> out(sizeof(T));
    std::memcpy(out.data(), &value, sizeof(T));
    return out;
  }

  template <typename T>
  static Result<T> Decode(const std::vector<uint8_t>& bytes) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "Decode requires a trivially copyable type");
    if (bytes.size() != sizeof(T)) {
      return Status::Corruption("decoded size mismatch");
    }
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  /// Creates an object holding `value` under transaction `t` (defaults
  /// to the calling transaction).
  template <typename T>
  Result<ObjectId> Create(const T& value, Tid t = kNullTid) {
    return tm_->CreateObject(ResolveTid(t), Encode(value));
  }

  /// Reads the object as a `T` under transaction `t`.
  template <typename T>
  Result<T> Get(ObjectId oid, Tid t = kNullTid) {
    auto bytes = tm_->Read(ResolveTid(t), oid);
    if (!bytes.ok()) return bytes.status();
    return Decode<T>(*bytes);
  }

  /// Overwrites the object with `value` under transaction `t`.
  template <typename T>
  Status Put(ObjectId oid, const T& value, Tid t = kNullTid) {
    return tm_->Write(ResolveTid(t), oid, Encode(value));
  }

  /// Raw-bytes data operations under transaction `t` (defaults to the
  /// calling transaction).
  Result<std::vector<uint8_t>> ReadObject(ObjectId oid, Tid t = kNullTid) {
    return tm_->Read(ResolveTid(t), oid);
  }
  Status WriteObject(ObjectId oid, std::span<const uint8_t> data,
                     Tid t = kNullTid) {
    return tm_->Write(ResolveTid(t), oid, data);
  }
  Result<ObjectId> CreateObject(std::span<const uint8_t> data,
                                Tid t = kNullTid) {
    return tm_->CreateObject(ResolveTid(t), data);
  }
  Status DeleteObject(ObjectId oid, Tid t = kNullTid) {
    return tm_->DeleteObject(ResolveTid(t), oid);
  }

  // --- Counters (semantic increments, paper §5) -------------------------

  /// Creates a counter initialized to `initial`.
  Result<ObjectId> CreateCounter(int64_t initial, Tid t = kNullTid) {
    return tm_->CreateCounter(ResolveTid(t), initial);
  }

  /// Commutative add: concurrent adders never conflict.
  Status Add(ObjectId oid, int64_t delta, Tid t = kNullTid) {
    return tm_->Increment(ResolveTid(t), oid, delta);
  }

  /// Counter value under a read lock.
  Result<int64_t> GetCounter(ObjectId oid, Tid t = kNullTid) {
    return tm_->ReadCounter(ResolveTid(t), oid);
  }

  // --- Maintenance -------------------------------------------------------

  /// Online (fuzzy) checkpoint: writes back unpinned dirty pages, logs
  /// a kFuzzyCheckpoint record carrying the active-transaction and
  /// dirty-page tables, and (per CheckpointOptions::truncate_wal) drops
  /// the WAL prefix the checkpoint made redundant. Never waits for
  /// transactions to terminate and never blocks user traffic; safe to
  /// call with transactions running.
  Status Checkpoint();

  /// Blocks until every appended WAL record is durable (leading or
  /// following one group-commit batch). Under DurabilityPolicy::kRelaxed
  /// this is the explicit sync point: an OK return means every commit
  /// acked before this call is crash-safe. Surfaces the log's sticky I/O error.
  Status SyncWal() { return log_.Flush(); }

  /// Simulates a crash and runs recovery: tears down the kernel, drops
  /// every non-durable log record and every cached page, rescans the
  /// store, replays the log, and brings up a fresh kernel. No user
  /// threads may be inside the database during the call.
  Status CrashAndRecover(RecoveryManager::Report* report = nullptr);

  // --- Observability -----------------------------------------------------

  /// Plain-value snapshot of the kernel's counters and latency
  /// percentiles.
  KernelStats::Snapshot Stats() const { return tm_->stats().snapshot(); }

  /// The kernel's flight recorder, drained as Chrome trace_event JSON
  /// (load in chrome://tracing or ui.perfetto.dev). Empty trace unless
  /// tracing was enabled (Options::txn.trace.enabled or
  /// set_trace_enabled(true)).
  std::string DumpTrace() { return tm_->recorder().DumpChromeJson(); }

  /// Toggles flight recording at runtime.
  void set_trace_enabled(bool on) { tm_->recorder().set_enabled(on); }

  /// The kernel's flight recorder itself, for layers that emit their
  /// own events into the shared timeline (server stage spans, client
  /// RPC spans) or inspect ring state for metrics.
  FlightRecorder& trace_recorder() { return tm_->recorder(); }

  /// Consistent JSON snapshot of the kernel's control structures —
  /// transactions, lock wait-for edges, dependencies, permits, the last
  /// deadlock cycle — plus the WAL watermarks. One kernel-mutex hold.
  std::string DumpState() {
    return RenderKernelStateJson(tm_->SnapshotState(), WalMarks());
  }

  /// The lock wait-for graph (and last deadlock cycle) as Graphviz DOT.
  std::string DumpWaitForDot() {
    return RenderWaitForDot(tm_->SnapshotState());
  }

  /// Counters, latency percentiles, and WAL watermarks in Prometheus
  /// text exposition format. Served over the wire by the kMetrics
  /// command (src/api/), which makes this the network server's ops
  /// endpoint.
  std::string MetricsText() {
    return RenderMetricsText(tm_->stats().snapshot(), WalMarks());
  }

 private:
  friend class Txn;
  /// The white-box seam (database_internal.h): tests and in-tree
  /// subsystems reach the raw kernel/storage references through it;
  /// applications do not.
  friend class DatabaseInternal;

  Database() = default;

  // Raw subsystem references. Deliberately private: every public path
  // goes through the facade methods above (or the command API), so the
  // kernel can evolve without leaking through the examples and
  // benchmarks.
  TransactionManager& txn() { return *tm_; }
  ObjectStore& store() { return *store_; }
  LogManager& log() { return log_; }
  BufferPool& pool() { return *pool_; }

  static Tid ResolveTid(Tid t) {
    return t == kNullTid ? TransactionManager::Self() : t;
  }

  /// The WAL watermark gauges the dumps fold in.
  WalWatermarks WalMarks() {
    WalWatermarks w;
    w.last_lsn = log_.last_lsn();
    w.durable_lsn = log_.durable_lsn();
    w.checkpoint_lsn = log_.last_checkpoint_lsn();
    w.min_recovery_lsn = log_.checkpoint_min_recovery_lsn();
    return w;
  }

  /// One fuzzy checkpoint + optional truncation, serialized by
  /// ckpt_mu_ (manual calls and the background thread never overlap).
  Status DoCheckpoint();
  /// Spawns the background checkpointer if either trigger is set.
  void StartCheckpointer();
  /// Stops and joins the background checkpointer (idempotent). Must be
  /// called before tm_ is torn down — the thread snapshots the kernel.
  void StopCheckpointer();
  void CheckpointerMain();

  Options options_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  LogManager log_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<TransactionManager> tm_;

  /// Serializes checkpoint execution.
  std::mutex ckpt_mu_;
  /// Guards the checkpointer thread's sleep/stop state.
  std::mutex ckpt_thread_mu_;
  std::condition_variable ckpt_cv_;
  bool ckpt_stop_ = false;
  /// appended_bytes() at the last checkpoint attempt (byte trigger
  /// baseline).
  std::atomic<uint64_t> ckpt_baseline_bytes_{0};
  std::thread checkpointer_;
};

// --- Txn inline definitions (need the complete Database type) ------------

inline Status Txn::Commit(Lsn* gate) {
  if (!active()) {
    return Track(Status::IllegalState("transaction handle is inactive"));
  }
  Database* db = db_;
  Tid tid = tid_;
  db_ = nullptr;
  tid_ = kNullTid;
  return Track(db->txn().CommitTxn(tid, gate));
}

inline Status Txn::Abort() {
  if (!active()) {
    return Track(Status::IllegalState("transaction handle is inactive"));
  }
  Database* db = db_;
  Tid tid = tid_;
  db_ = nullptr;
  tid_ = kNullTid;
  return Track(db->txn().AbortTxn(tid));
}

inline Result<std::vector<uint8_t>> Txn::Read(ObjectId oid) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->txn().Read(tid_, oid));
}

inline Status Txn::Write(ObjectId oid, std::span<const uint8_t> data) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->txn().Write(tid_, oid, data));
}

inline Result<ObjectId> Txn::CreateObject(std::span<const uint8_t> data) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->txn().CreateObject(tid_, data));
}

inline Status Txn::Delete(ObjectId oid) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->txn().DeleteObject(tid_, oid));
}

template <typename T>
Result<ObjectId> Txn::Create(const T& value) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->Create(value, tid_));
}

template <typename T>
Result<T> Txn::Get(ObjectId oid) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->Get<T>(oid, tid_));
}

template <typename T>
Status Txn::Put(ObjectId oid, const T& value) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->Put(oid, value, tid_));
}

inline Result<ObjectId> Txn::CreateCounter(int64_t initial) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->CreateCounter(initial, tid_));
}

inline Status Txn::Add(ObjectId oid, int64_t delta) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->Add(oid, delta, tid_));
}

inline Result<int64_t> Txn::GetCounter(ObjectId oid) {
  if (Status s = CheckActive(); !s.ok()) return Track(s);
  return Track(db_->GetCounter(oid, tid_));
}

}  // namespace asset

#endif  // ASSET_CORE_DATABASE_H_
