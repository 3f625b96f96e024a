#ifndef ASSET_CORE_TRANSACTION_MANAGER_H_
#define ASSET_CORE_TRANSACTION_MANAGER_H_

/// \file transaction_manager.h
/// The ASSET transaction primitives (§2) and their §4.2 algorithms.
///
/// Basic primitives: Initiate / Begin / Commit / Wait / Abort / Self /
/// Parent (§2.1). New primitives: Delegate, Permit (all four forms), and
/// FormDependency (§2.2). Data operations (Read / Write / CreateObject /
/// DeleteObject) implement the §4.2 read/write algorithms: lock, latch,
/// log before+after images, apply in the shared cache.
///
/// Error surface: the paper-faithful primitives return the paper's bare
/// `bool`/`int` codes; each has a `Status`-returning sibling
/// (BeginTxn / CommitTxn / AbortTxn) that preserves the *reason* — most
/// importantly the abort reason (deadlock victim, timeout, dependency
/// propagation, explicit abort) that the bare `false` discards. The bool
/// forms are thin wrappers over the Status forms.
///
/// Execution model: each begun transaction runs its registered function
/// on a dedicated worker thread drawn from a cached, unbounded pool
/// (ThreadCache); Self()/Parent() consult a thread-local pointer to the
/// executing TD, matching the paper's per-transaction process. Commit is
/// blocking; a transaction completes (holding its locks, changes not yet
/// persistent) when its function returns, and terminates only through
/// Commit or Abort. BeginSession() additionally supports *caller-driven*
/// transactions — no registered function, no worker thread; the caller
/// issues data operations with the returned tid from any one thread and
/// finishes with CommitTxn/AbortTxn. This is the substrate of the RAII
/// `Txn` handle on Database.
///
/// Blocking and wakeups: every blocked primitive sleeps on the specific
/// transaction it is waiting for (TD::lifecycle_cv for lifecycle waits,
/// TD::lock_wait for lock waits) and is woken by exactly the state
/// transitions that can unblock it — a terminating transaction wakes its
/// dependents, group members, and lock waiters; a new permit wakes the
/// transactions blocked on locks. See kernel.h for the lock ordering.
///
/// Volatile data must not persist across transaction boundaries (§2):
/// bind arguments by value and do not share mutable captures between
/// transaction functions.

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/object_set.h"
#include "common/op_set.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/dependency_graph.h"
#include "core/descriptors.h"
#include "core/introspection.h"
#include "core/kernel.h"
#include "core/lock_manager.h"
#include "core/permit_table.h"
#include "core/statistics.h"
#include "core/thread_cache.h"
#include "core/undo_log.h"
#include "storage/object_store.h"
#include "storage/wal.h"

namespace asset {

/// When (relative to the ack) a commit's log records must be durable.
/// Only meaningful while Options::force_log_at_commit is true.
enum class DurabilityPolicy : uint8_t {
  /// The commit call returns only once the commit record is durable
  /// (durable_lsn >= commit_lsn). The wait happens *after* the kernel
  /// mutex is released: the committer leads a WAL flush or follows the
  /// one in progress, so concurrent committers share one fsync instead
  /// of serializing the kernel behind the disk.
  kStrict,
  /// The commit call returns as soon as the commit is applied in
  /// memory and its record is queued for the WAL (RequestFlush): it
  /// leads a flush only when none is in progress and never waits for
  /// one. A crash may lose the tail of acked commits, at most one
  /// batch — never a prefix hole: the log persists in lsn order. A
  /// sticky WAL I/O failure still fails the ack (otherwise the lost
  /// tail would be unbounded).
  kRelaxed,
};

/// The transaction kernel. One instance per database.
class TransactionManager {
 public:
  struct Options {
    LockManager::Options lock;
    /// Force the log at commit (durability). Benchmarks may disable.
    bool force_log_at_commit = true;
    /// How long a commit ack may run ahead of the disk (see
    /// DurabilityPolicy). Ignored unless force_log_at_commit.
    DurabilityPolicy durability = DurabilityPolicy::kStrict;
    /// Upper bound on active (begun, unterminated) transactions; the
    /// paper's initiate returns the null tid "if no resources are
    /// available".
    size_t max_transactions = 100000;
    /// A blocking commit that cannot resolve its dependencies within
    /// this bound aborts the transaction (so its 0 return is truthful).
    /// Zero means wait forever.
    std::chrono::milliseconds commit_timeout{10000};
    /// Flight-recorder configuration. Tracing can also be toggled at
    /// runtime via recorder().set_enabled(); when disabled, the
    /// instrumentation cost is one relaxed atomic load per hook.
    TraceOptions trace;
  };

  TransactionManager(LogManager* log, ObjectStore* store, Options options);
  /// Default options.
  TransactionManager(LogManager* log, ObjectStore* store);

  /// Aborts every still-active transaction and waits for their threads.
  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // --- Basic primitives (§2.1) ---------------------------------------

  /// initiate(f, args): registers a transaction that will run f(args...)
  /// when begun. Arguments are captured by value now (volatile data must
  /// not cross transaction boundaries). Returns kNullTid if the
  /// transaction table is full.
  template <typename F, typename... Args>
  Tid Initiate(F&& f, Args&&... args) {
    return InitiateFn(
        [fn = std::forward<F>(f),
         ... bound = std::forward<Args>(args)]() mutable { fn(bound...); });
  }

  /// Type-erased initiate.
  Tid InitiateFn(std::function<void()> fn);

  /// begin(t): starts execution. Returns true on success (t existed and
  /// was initiated). Paper-faithful wrapper over BeginTxn.
  bool Begin(Tid t);

  /// Status-returning begin: OK once t is running; kNotFound for an
  /// unknown tid, kIllegalState if t is not in the initiated state (or
  /// the kernel is shutting down), kTxnAborted if a begin-dependency can
  /// never be satisfied, kTimedOut if the begin-dependency gate did not
  /// open within the commit timeout.
  Status BeginTxn(Tid t);

  /// begin(t1, ..., tn): starts several transactions atomically — either
  /// every listed transaction starts or none does. The call validates
  /// (every tid known and still initiated), waits until every member's
  /// begin-dependency gate is open (bounded by the commit timeout,
  /// re-validating after every wakeup), and only then performs all the
  /// transitions to running under a single kernel-mutex hold. A
  /// concurrent Begin or Abort of any member, an unsatisfiable
  /// begin-dependency, or a gate timeout therefore fails the whole call
  /// with NO transaction started.
  bool Begin(std::initializer_list<Tid> ts);

  /// commit(t): blocking commit. Waits for t (and any group-commit
  /// peers) to complete execution and for t's dependencies to resolve.
  /// Returns true if t commits or had already committed; false if t is
  /// aborted. Paper-faithful wrapper over CommitTxn.
  bool Commit(Tid t);

  /// Status-returning commit: OK on commit; kTxnAborted (with the abort
  /// reason) if t aborted instead; kTimedOut if dependencies stayed
  /// unresolved within the commit timeout (t is aborted then, so the
  /// failure is truthful); kNotFound for a tid that never existed.
  ///
  /// With a non-null `gate`, a strict commit whose record still needs
  /// device I/O to become durable does not wait for it: the commit is
  /// applied, *gate is set to its commit lsn, and OK means "committed,
  /// durable once durable_lsn() >= *gate". The caller must not
  /// acknowledge the commit before then (LogManager::WaitDurable), and
  /// must report that wait's failure as the commit's. Every other
  /// outcome sets *gate to kNullLsn and is final, as without a gate.
  Status CommitTxn(Tid t, Lsn* gate = nullptr);

  /// wait(t): returns 1 once t's code has completed (or t committed),
  /// 0 if t has aborted. From t's own thread it reports whether t is
  /// still viable (not aborting).
  int Wait(Tid t);

  /// abort(t): returns true unless t has already committed.
  /// Paper-faithful wrapper over AbortTxn.
  bool Abort(Tid t);

  /// Status-returning abort: OK once t is (or was already) aborted;
  /// kIllegalState if t had already committed.
  Status AbortTxn(Tid t);

  /// Starts a caller-driven *session* transaction: begun immediately, no
  /// worker thread; the caller issues data operations with the returned
  /// tid and finishes with CommitTxn or AbortTxn. The RAII `Txn` handle
  /// on Database is built on this. A session transaction must be driven
  /// from one thread at a time.
  Result<Tid> BeginSession();

  /// Tid of the transaction executing on this thread, or kNullTid.
  static Tid Self();

  /// Tid of the parent (initiating) transaction of the transaction
  /// executing on this thread; kNullTid for top-level transactions.
  static Tid Parent();

  /// Parent of an arbitrary transaction.
  Tid ParentOf(Tid t) const;

  /// Status query (the paper mentions "primitives to query the status
  /// of transactions, for instance, to determine whether a transaction
  /// has aborted" without detailing them; these are ours).
  TxnStatus GetStatus(Tid t) const;

  /// True iff t has committed.
  bool IsCommitted(Tid t) const { return GetStatus(t) == TxnStatus::kCommitted; }

  /// True iff t has aborted or is in the middle of aborting.
  bool IsAborted(Tid t) const {
    TxnStatus s = GetStatus(t);
    return s == TxnStatus::kAborted || s == TxnStatus::kAborting;
  }

  /// True iff t has begun and not yet terminated (§2.1's "active").
  bool IsActiveTxn(Tid t) const { return IsActive(GetStatus(t)); }

  /// True iff t's code has finished but t is not yet terminated — the
  /// §2.1 "completed" window in which locks are held and changes are
  /// volatile.
  bool IsCompleted(Tid t) const {
    TxnStatus s = GetStatus(t);
    return s == TxnStatus::kCompleted || s == TxnStatus::kCommitting;
  }

  // --- New primitives (§2.2) ------------------------------------------

  /// delegate(ti, tj, ob_set): ti transfers to tj the responsibility for
  /// ti's operations on objects in `objs` — their locks, their permits
  /// given, and their undo/redo attribution.
  Status Delegate(Tid ti, Tid tj, const ObjectSet& objs);

  /// delegate(ti, tj): everything ti is responsible for.
  Status Delegate(Tid ti, Tid tj);

  /// permit(ti, tj, ob_set, operations).
  Status Permit(Tid ti, Tid tj, const ObjectSet& objs, OpSet ops);

  /// permit(ti, tj, operations): any object ti accessed or is permitted
  /// on (§4.2 expansion).
  Status Permit(Tid ti, Tid tj, OpSet ops);

  /// permit(ti, tj): any operation on any such object.
  Status Permit(Tid ti, Tid tj);

  /// permit(ti, ob_set, operations): any transaction.
  Status PermitAny(Tid ti, const ObjectSet& objs, OpSet ops);

  /// form_dependency(type, ti, tj): tj becomes dependent on ti.
  Status FormDependency(DependencyType type, Tid ti, Tid tj);

  // --- Data operations (§4.2 read/write) -------------------------------

  /// read(t, ob): read-lock, S-latch, copy out.
  Result<std::vector<uint8_t>> Read(Tid t, ObjectId oid);

  /// write(t, ob): write-lock, X-latch, log before/after images, apply.
  Status Write(Tid t, ObjectId oid, std::span<const uint8_t> data);

  /// Creates a new object owned (and write-locked) by t.
  Result<ObjectId> CreateObject(Tid t, std::span<const uint8_t> data);

  /// Deletes an object (write-locked; before image logged).
  Status DeleteObject(Tid t, ObjectId oid);

  // --- Semantic operations (paper §5 future work) -----------------------
  //
  // Counters support commutative increments: increment locks are
  // compatible with each other, so concurrent adders never block or
  // conflict; undo is logical (the negated delta), so aborting one
  // adder does not erase the others' committed additions.

  /// Creates a counter object initialized to `initial`, write-locked by
  /// t like any create.
  Result<ObjectId> CreateCounter(Tid t, int64_t initial);

  /// Adds `delta` under an increment lock. Conflicts only with readers
  /// and writers, never with other increments.
  Status Increment(Tid t, ObjectId oid, int64_t delta);

  /// Reads the counter's value under a read lock (serializing against
  /// in-flight increments, as §5's semantics require).
  Result<int64_t> ReadCounter(Tid t, ObjectId oid);

  // --- Introspection ----------------------------------------------------

  KernelStats& stats() { return stats_; }
  LockManager& lock_manager() { return locks_; }

  /// The kernel's flight recorder: per-thread rings of timestamped
  /// kernel events, drainable as Chrome trace JSON. Always present;
  /// recording is governed by Options::trace.enabled / set_enabled().
  FlightRecorder& recorder() { return recorder_; }

  /// Consistent snapshot of the kernel's control structures — TD table,
  /// lock wait-for edges, dependency graph, permits, last deadlock
  /// cycle — taken under one kernel-mutex hold. Render with
  /// RenderKernelStateJson / RenderWaitForDot (introspection.h).
  KernelStateSnapshot SnapshotState() const;

  /// Count of begun-but-unterminated transactions.
  size_t ActiveTransactions() const;

  /// The active-transaction table for a fuzzy checkpoint: every begun,
  /// unterminated transaction with a copy of the lsns of the data
  /// operations it is responsible for (delegation folded in). One
  /// kernel-mutex hold, so the snapshot is atomic with respect to
  /// begin, commit, abort, and delegation.
  std::vector<FuzzyCheckpointImage::TxnEntry> SnapshotActiveTransactions()
      const;

  /// Direct access for white-box tests.
  PermitTable& permit_table_for_test() { return permit_table_; }
  DependencyGraph& dependency_graph_for_test() { return deps_; }
  KernelSync& sync_for_test() { return sync_; }

 private:
  enum class CommitEval { kCommit, kAbort, kWait };

  /// Pinned reference to a TD for the duration of one data operation;
  /// unpins on destruction. The fast path (own transaction) needs no
  /// pin: a TD cannot be reclaimed while its thread runs. A pinned ref
  /// additionally holds an op pin (TD::op_pins), which defers any
  /// closure-abort finalization involving this transaction until the
  /// operation is out of the kernel; the destructor of the last op pin
  /// of an aborting transaction completes the deferred physical abort.
  struct TxnRef {
    TransactionManager* mgr = nullptr;
    TransactionDescriptor* td = nullptr;
    bool pinned = false;
    ~TxnRef();
  };

  TransactionDescriptor* FindLocked(Tid t) const;
  TxnStatus StatusOfLocked(Tid t) const;
  /// Terminal status of a reclaimed tid (one FindLocked found no TD
  /// for), or nullopt if `t` was never issued.
  std::optional<TxnStatus> TombstoneLocked(Tid t) const;

  /// Evaluates t's begin-dependency gate without blocking. Returns OK
  /// with *blocked=false when every begin-dependency is satisfied, OK
  /// with *blocked=true when one is merely not yet satisfied, and an
  /// error when one can never be satisfied (the dependee aborted).
  Status EvalBeginGateLocked(Tid t, bool* blocked) const;

  /// Transitions an initiated `td` to running: status, accounting, begin
  /// log record, and the dependent wakeups. The caller submits
  /// ThreadMain afterwards (outside the mutex).
  void StartRunningLocked(TransactionDescriptor* td);

  /// Resolves `t` to a running TD for a data operation. Fast path: when
  /// the calling thread IS the transaction, only an atomic status check
  /// (no kernel mutex). Slow path: look up and pin under the mutex.
  /// `distinguish_aborted` selects kTxnAborted (vs kIllegalState) for
  /// aborting transactions, matching the per-op error contracts.
  Status PrepareDataOp(Tid t, const char* what, bool distinguish_aborted,
                       TxnRef* out);

  /// Evaluates the §4.2 commit algorithm for `td` under the kernel
  /// mutex; on kCommit fills `group` with the GC component to commit
  /// simultaneously.
  CommitEval EvaluateCommitLocked(TransactionDescriptor* td,
                                  std::vector<TransactionDescriptor*>* group);

  /// Commits `group` simultaneously (log records, release locks/permits,
  /// drop dependencies) and wakes everything that observed the members:
  /// their lifecycle waiters, their dependents, their lock waiters.
  /// Appends the members' commit records but performs NO flush — the
  /// kernel mutex is never held across device I/O. Returns the group's
  /// highest commit-record lsn; the caller waits for it durably via
  /// AwaitCommitDurable *after* releasing the mutex.
  Lsn CommitGroupLocked(const std::vector<TransactionDescriptor*>& group);

  /// The durability side of the commit ack, run with the kernel mutex
  /// RELEASED: no-op when the log is not forced at commit; a no-wait
  /// RequestFlush under DurabilityPolicy::kRelaxed; a
  /// WaitDurable(commit_lsn) under kStrict — unless `gate` is non-null
  /// and the wait needs device I/O, which is then handed to the caller
  /// as *gate = commit_lsn (see CommitTxn). A flush failure surfaces
  /// here as the commit's return Status (the commit is applied in
  /// memory regardless). `t` is
  /// the committing transaction, for the commit-stall trace event.
  Status AwaitCommitDurable(Tid t, Lsn commit_lsn, Lsn* gate);

  /// Marks `td` aborting (recording `reason` as its abort reason if none
  /// is set yet) and wakes its observers: its lifecycle waiters, a lock
  /// wait of its own, and its commit group. Marking only — no undo.
  void MarkAbortingLocked(TransactionDescriptor* td, std::string reason);

  /// Marks `td` aborting and drives the physical abort of its doomed
  /// closure as far as currently possible (see FinishAbortClosureLocked).
  void StartAbortLocked(TransactionDescriptor* td, std::string reason);

  /// §4.2 abort steps 2-6, over the whole doomed closure at once.
  /// Collects every transaction transitively doomed by `seed`'s abort
  /// (following AD/GC/BCD and unsatisfied-BD edges; CDs dissolve),
  /// marks them aborting, and — once no member's thread is still
  /// running and no member has a data operation in flight (op_pins) —
  /// undoes all members' operations in one merged reverse-chronological
  /// pass and finalizes each. While any doomed member still runs or has
  /// an op in flight, finalization is deferred: that member's thread
  /// exit (or last op unpin) re-enters here and completes the closure.
  /// The deferral keeps cross-transaction undo ordered when cooperating
  /// transactions with interleaved writes abort together, and keeps
  /// lock release / undo from running under a concurrent data operation
  /// on a session transaction.
  void FinishAbortClosureLocked(TransactionDescriptor* seed);

  /// Post-undo bookkeeping for one closure member: abort log record,
  /// lock/permit/dependency release, final status, notifications.
  void FinalizeAbortLocked(TransactionDescriptor* td);

  /// Lock acquisition for a data op. A deadlock or timeout is fatal to
  /// the transaction under strict 2PL: the transaction is marked
  /// aborting so a later commit cannot publish partial effects.
  Status AcquireOrDoom(TransactionDescriptor* td, ObjectId oid,
                       LockMode mode);

  /// Body run on each transaction's thread.
  void ThreadMain(TransactionDescriptor* td);

  /// Reclaims TDs that are terminated with exited threads and no pins.
  void CollectLocked();

  // --- Targeted wakeups (all under the kernel mutex) -------------------

  /// Wakes the lifecycle waiters of `td` (Begin gates, Commit, Wait,
  /// Abort sleepers targeting this transaction).
  void NotifyTxnLocked(TransactionDescriptor* td);
  /// Wakes the transactions *dependent on* `t` — their begin gates and
  /// commit evaluations may have just been unblocked.
  void WakeDependentsLocked(Tid t);
  /// Wakes the lifecycle waiters of `t`'s group-commit component
  /// (excluding `t` itself): a member's status change re-triggers the
  /// peers' commit evaluation.
  void WakeGroupLocked(Tid t);
  /// Wakes every transaction currently blocked on a lock: a new or
  /// redirected permit can admit any of them.
  void WakeLockWaitersLocked();

  /// `td`'s abort reason, or a generic fallback.
  static std::string AbortReasonLocked(const TransactionDescriptor* td);

  Options options_;
  LogManager* log_;
  ObjectStore* store_;

  mutable KernelSync sync_;
  KernelStats stats_;
  /// Declared before locks_: the LockManager holds a pointer to it.
  FlightRecorder recorder_;
  PermitTable permit_table_;
  DependencyGraph deps_;
  TdTable txns_;
  LockManager locks_;
  /// Runs transaction bodies on cached worker threads.
  ThreadCache executor_;
  UndoManager undo_;

  /// Terminal statuses of reclaimed TDs, one bit per tid (committed or
  /// aborted). Tids are issued densely from 1, so every issued tid with
  /// no TD left in txns_ reads its status here.
  std::vector<bool> committed_;
  Tid next_tid_ = 1;
  size_t active_count_ = 0;        // begun, not yet terminated
  size_t live_threads_ = 0;        // threads between Begin and thread_exited
  size_t unterminated_count_ = 0;  // initiated or active (admission control)
  bool shutting_down_ = false;
};

}  // namespace asset

#endif  // ASSET_CORE_TRANSACTION_MANAGER_H_
