#include "core/transaction_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>
#include <unordered_set>

namespace asset {

namespace {

/// The transaction executing on this thread (the paper's per-process
/// current transaction; self()/parent() read it).
thread_local TransactionDescriptor* tls_current = nullptr;

/// Collect terminated TDs once the table grows past this.
constexpr size_t kCollectThreshold = 1024;

Status NotRunningError(const char* what, TxnStatus s,
                       bool distinguish_aborted) {
  if (distinguish_aborted &&
      (s == TxnStatus::kAborting || s == TxnStatus::kAborted)) {
    return Status::TxnAborted(std::string(what) +
                              ": transaction is aborting");
  }
  return Status::IllegalState(std::string(what) +
                              ": transaction is not running");
}

}  // namespace

TransactionManager::TransactionManager(LogManager* log, ObjectStore* store,
                                       Options options)
    : options_(options),
      log_(log),
      store_(store),
      recorder_(options.trace),
      locks_(&sync_, &permit_table_, &txns_, &stats_, &recorder_,
             options.lock),
      undo_(log, store, &stats_) {
  recorder_.BindDroppedCounter(&stats_.trace_events_dropped);
  log_->BindStats(WalStatsSink{&stats_.wal_appends, &stats_.wal_fsyncs,
                               &stats_.wal_records_flushed,
                               &stats_.wal_truncations,
                               &stats_.wal_records_truncated,
                               &stats_.fsync_latency, &recorder_});
}

TransactionManager::TransactionManager(LogManager* log, ObjectStore* store)
    : TransactionManager(log, store, Options()) {}

TransactionManager::~TransactionManager() {
  {
    std::unique_lock<std::mutex> lk(sync_.mu);
    shutting_down_ = true;
    for (auto& [tid, td] : txns_) {
      if (!IsTerminated(td->status)) {
        StartAbortLocked(td.get(), "kernel shutting down");
      }
    }
    sync_.cv.wait(lk, [&] { return live_threads_ == 0; });
  }
  // Detach the log's counters before stats_ dies; the log outlives this
  // kernel.
  log_->UnbindStats(WalStatsSink{&stats_.wal_appends, &stats_.wal_fsyncs,
                                 &stats_.wal_records_flushed,
                                 &stats_.wal_truncations,
                                 &stats_.wal_records_truncated,
                                 &stats_.fsync_latency, &recorder_});
}

// ---------------------------------------------------------------------------
// Lookup helpers

TransactionDescriptor* TransactionManager::FindLocked(Tid t) const {
  auto it = txns_.find(t);
  return it == txns_.end() ? nullptr : it->second.get();
}

TxnStatus TransactionManager::StatusOfLocked(Tid t) const {
  if (const TransactionDescriptor* td = FindLocked(t)) return td->status;
  // Unknown tids should not arise (dependencies validate both ends);
  // fail safe by treating them as aborted.
  return TombstoneLocked(t).value_or(TxnStatus::kAborted);
}

std::optional<TxnStatus> TransactionManager::TombstoneLocked(Tid t) const {
  if (t == kNullTid || t >= next_tid_) return std::nullopt;
  return t < committed_.size() && committed_[t] ? TxnStatus::kCommitted
                                                : TxnStatus::kAborted;
}

void TransactionManager::CollectLocked() {
  for (auto it = txns_.begin(); it != txns_.end();) {
    TransactionDescriptor* td = it->second.get();
    if (IsTerminated(td->status) && td->thread_exited &&
        td->pins.load(std::memory_order_acquire) == 0) {
      if (committed_.size() <= td->tid) committed_.resize(next_tid_);
      committed_[td->tid] = td->status.load() == TxnStatus::kCommitted;
      it = txns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string TransactionManager::AbortReasonLocked(
    const TransactionDescriptor* td) {
  if (td != nullptr && !td->abort_reason.empty()) {
    return "transaction " + std::to_string(td->tid) + " aborted: " +
           td->abort_reason;
  }
  Tid t = td != nullptr ? td->tid : kNullTid;
  return "transaction " + std::to_string(t) + " aborted";
}

// ---------------------------------------------------------------------------
// Targeted wakeups

void TransactionManager::NotifyTxnLocked(TransactionDescriptor* td) {
  stats_.txn_wakeups.fetch_add(1, std::memory_order_relaxed);
  td->lifecycle_cv.notify_all();
}

void TransactionManager::WakeDependentsLocked(Tid t) {
  for (const Dependency& d : deps_.DependenciesOn(t)) {
    if (TransactionDescriptor* dep = FindLocked(d.dependent)) {
      NotifyTxnLocked(dep);
    }
  }
}

void TransactionManager::WakeGroupLocked(Tid t) {
  for (Tid m : deps_.GroupOf(t)) {
    if (m == t) continue;
    if (TransactionDescriptor* mtd = FindLocked(m)) {
      NotifyTxnLocked(mtd);
    }
  }
}

void TransactionManager::WakeLockWaitersLocked() {
  stats_.permit_broadcasts.fetch_add(1, std::memory_order_relaxed);
  // Exactly the requesters currently blocked in LockManager::Acquire
  // (they register in lock_blocked before their first sleep), so this
  // stays O(blocked) instead of scanning the TD table.
  for (TransactionDescriptor* td : sync_.lock_blocked) {
    td->lock_wait.Notify();
  }
}

// ---------------------------------------------------------------------------
// Basic primitives (§2.1)

Tid TransactionManager::InitiateFn(std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(sync_.mu);
  if (shutting_down_) return kNullTid;
  if (txns_.size() >= kCollectThreshold) CollectLocked();
  if (unterminated_count_ >= options_.max_transactions) {
    return kNullTid;  // the paper's "no resources available" error
  }
  Tid tid = next_tid_++;
  Tid parent = tls_current != nullptr ? tls_current->tid : kNullTid;
  auto td = std::make_unique<TransactionDescriptor>(tid, parent);
  td->fn = fn ? std::move(fn) : [] {};
  txns_.emplace(tid, std::move(td));
  unterminated_count_++;
  stats_.txns_initiated.fetch_add(1, std::memory_order_relaxed);
  recorder_.Emit(TraceEventType::kTxnInitiate, tid, parent);
  return tid;
}

bool TransactionManager::Begin(Tid t) { return BeginTxn(t).ok(); }

Status TransactionManager::EvalBeginGateLocked(Tid t, bool* blocked) const {
  *blocked = false;
  for (const Dependency& d : deps_.DependenciesOf(t)) {
    if (d.type == DependencyType::kBeginOnBegin) {
      const TransactionDescriptor* dep = FindLocked(d.dependee);
      TxnStatus ds = StatusOfLocked(d.dependee);
      bool dep_begun =
          dep != nullptr ? dep->begun : ds == TxnStatus::kCommitted;
      if (dep_begun) continue;
      if (ds == TxnStatus::kAborted) {
        return Status::TxnAborted(
            "begin: begin-dependency on transaction " +
            std::to_string(d.dependee) + ", which aborted before "
            "beginning");
      }
      *blocked = true;
    } else if (d.type == DependencyType::kBeginOnCommit) {
      TxnStatus ds = StatusOfLocked(d.dependee);
      if (ds == TxnStatus::kCommitted) continue;
      if (ds == TxnStatus::kAborted) {
        return Status::TxnAborted(
            "begin: begin-on-commit dependency on transaction " +
            std::to_string(d.dependee) + ", which aborted");
      }
      *blocked = true;
    }
  }
  return Status::OK();
}

void TransactionManager::StartRunningLocked(TransactionDescriptor* td) {
  td->status = TxnStatus::kRunning;
  td->begun = true;
  td->thread_exited = false;
  active_count_++;
  live_threads_++;
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.tid = td->tid;
  log_->Append(std::move(rec));
  stats_.txns_begun.fetch_add(1, std::memory_order_relaxed);
  recorder_.Emit(TraceEventType::kTxnBegin, td->tid, td->parent);
  // A begin-dependency of someone else may just have been satisfied.
  WakeDependentsLocked(td->tid);
}

Status TransactionManager::BeginTxn(Tid t) {
  TransactionDescriptor* td;
  {
    std::unique_lock<std::mutex> lk(sync_.mu);
    td = FindLocked(t);
    if (td == nullptr) {
      return Status::NotFound("begin: unknown transaction " +
                              std::to_string(t));
    }
    TdPin pin(td);
    const bool bounded = options_.commit_timeout.count() > 0;
    const auto deadline =
        std::chrono::steady_clock::now() + options_.commit_timeout;
    // Begin-dependency gate (ACTA BD/BCD extension): block until every
    // begin-dependency is satisfied; fail if one became unsatisfiable.
    for (;;) {
      if (shutting_down_) {
        return Status::IllegalState("begin: kernel is shutting down");
      }
      if (td->status != TxnStatus::kInitiated) {
        return Status::IllegalState(
            "begin: transaction " + std::to_string(t) + " is " +
            TxnStatusToString(td->status));
      }
      bool blocked = false;
      ASSET_RETURN_NOT_OK(EvalBeginGateLocked(t, &blocked));
      if (!blocked) break;
      if (bounded) {
        if (td->lifecycle_cv.wait_until(lk, deadline) ==
            std::cv_status::timeout) {
          return Status::TimedOut(
              "begin: begin-dependencies of transaction " +
              std::to_string(t) + " unresolved within timeout");
        }
      } else {
        td->lifecycle_cv.wait(lk);
      }
    }
    StartRunningLocked(td);
  }
  executor_.Submit([this, td] { ThreadMain(td); });
  return Status::OK();
}

bool TransactionManager::Begin(std::initializer_list<Tid> ts) {
  // All-or-nothing: nothing below transitions any member until every
  // member has been validated and has an open begin gate, and the
  // transitions then all happen under the same mutex hold as the last
  // validation pass — a concurrent Begin/Abort of a member fails the
  // whole call with nothing started.
  std::vector<Tid> tids;
  for (Tid t : ts) {
    if (std::find(tids.begin(), tids.end(), t) == tids.end()) {
      tids.push_back(t);
    }
  }
  if (tids.empty()) return true;

  std::unique_lock<std::mutex> lk(sync_.mu);
  std::vector<TransactionDescriptor*> tds;
  tds.reserve(tids.size());
  for (Tid t : tids) {
    TransactionDescriptor* td = FindLocked(t);
    if (td == nullptr || td->status != TxnStatus::kInitiated) return false;
    tds.push_back(td);
  }
  // Pin every member across the gate waits so a concurrently aborted
  // (and therefore collectable) TD cannot vanish under us.
  for (TransactionDescriptor* td : tds) {
    td->pins.fetch_add(1, std::memory_order_relaxed);
  }
  auto unpin_all = [&] {
    for (TransactionDescriptor* td : tds) {
      td->pins.fetch_sub(1, std::memory_order_release);
    }
  };
  const bool bounded = options_.commit_timeout.count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.commit_timeout;
  for (;;) {
    if (shutting_down_) {
      unpin_all();
      return false;
    }
    TransactionDescriptor* gated = nullptr;
    for (TransactionDescriptor* td : tds) {
      if (td->status != TxnStatus::kInitiated) {
        unpin_all();
        return false;
      }
      bool blocked = false;
      if (!EvalBeginGateLocked(td->tid, &blocked).ok()) {
        unpin_all();
        return false;
      }
      if (blocked && gated == nullptr) gated = td;
    }
    if (gated == nullptr) break;
    // Wait for the first gated member's dependencies (its dependees'
    // transitions notify its lifecycle_cv), then re-validate everything.
    if (bounded) {
      if (gated->lifecycle_cv.wait_until(lk, deadline) ==
          std::cv_status::timeout) {
        unpin_all();
        return false;
      }
    } else {
      gated->lifecycle_cv.wait(lk);
    }
  }
  // Point of no return: start every member under this one mutex hold.
  for (TransactionDescriptor* td : tds) StartRunningLocked(td);
  unpin_all();
  lk.unlock();
  for (TransactionDescriptor* td : tds) {
    executor_.Submit([this, td] { ThreadMain(td); });
  }
  return true;
}

Result<Tid> TransactionManager::BeginSession() {
  std::lock_guard<std::mutex> lk(sync_.mu);
  if (shutting_down_) {
    return Status::IllegalState("begin: kernel is shutting down");
  }
  if (txns_.size() >= kCollectThreshold) CollectLocked();
  if (unterminated_count_ >= options_.max_transactions) {
    return Status::ResourceExhausted("begin: transaction table is full");
  }
  Tid tid = next_tid_++;
  Tid parent = tls_current != nullptr ? tls_current->tid : kNullTid;
  auto td = std::make_unique<TransactionDescriptor>(tid, parent);
  td->fn = [] {};
  td->session = true;
  td->status = TxnStatus::kRunning;
  td->begun = true;
  // No worker thread ever runs for a session transaction; keeping
  // thread_exited set lets an abort perform the physical undo at once.
  td->thread_exited = true;
  txns_.emplace(tid, std::move(td));
  unterminated_count_++;
  active_count_++;
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.tid = tid;
  log_->Append(std::move(rec));
  stats_.txns_initiated.fetch_add(1, std::memory_order_relaxed);
  stats_.txns_begun.fetch_add(1, std::memory_order_relaxed);
  recorder_.Emit(TraceEventType::kTxnInitiate, tid, parent);
  recorder_.Emit(TraceEventType::kTxnBegin, tid, parent);
  return tid;
}

void TransactionManager::ThreadMain(TransactionDescriptor* td) {
  tls_current = td;
  try {
    td->fn();
  } catch (...) {
    // The library itself never throws; an escaping user exception aborts
    // the transaction rather than the process.
    std::lock_guard<std::mutex> lk(sync_.mu);
    if (td->status == TxnStatus::kRunning) {
      td->status = TxnStatus::kAborting;
      if (td->abort_reason.empty()) {
        td->abort_reason = "exception escaped the transaction function";
      }
    }
  }
  tls_current = nullptr;
  std::lock_guard<std::mutex> lk(sync_.mu);
  td->thread_exited = true;
  live_threads_--;
  if (td->status == TxnStatus::kRunning) {
    // §2.1: locks are kept and changes stay volatile; the manager just
    // records the completion.
    td->status = TxnStatus::kCompleted;
  } else if (td->status == TxnStatus::kAborting) {
    // Complete the (possibly deferred) physical abort of our closure.
    FinishAbortClosureLocked(td);
  }
  // Completion unblocks: Wait/Commit sleepers on this transaction and
  // the commit evaluations of group peers. (The closure finalization
  // performs its own notifications; repeating them is harmless.)
  NotifyTxnLocked(td);
  WakeGroupLocked(td->tid);
  sync_.cv.notify_all();  // live_threads_ changed (shutdown drain)
}

bool TransactionManager::Commit(Tid t) { return CommitTxn(t).ok(); }

Status TransactionManager::CommitTxn(Tid t, Lsn* gate) {
  const int64_t commit_start_ns = FlightRecorder::NowNs();
  if (gate != nullptr) *gate = kNullLsn;
  // Successful-commit ack: durability wait (mutex released by the
  // caller first) plus the commit-latency sample, measured from the
  // CommitTxn entry to the durable ack (or to the gate hand-off).
  auto ack = [&](Lsn commit_lsn) {
    Status s = AwaitCommitDurable(t, commit_lsn, gate);
    int64_t dur = FlightRecorder::NowNs() - commit_start_ns;
    if (dur < 0) dur = 0;
    stats_.commit_latency.Record(static_cast<uint64_t>(dur));
    return s;
  };
  std::unique_lock<std::mutex> lk(sync_.mu);
  const bool bounded = options_.commit_timeout.count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.commit_timeout;
  TransactionDescriptor* td = FindLocked(t);
  if (td == nullptr) {
    const std::optional<TxnStatus> tomb = TombstoneLocked(t);
    if (!tomb) {
      return Status::NotFound("commit: unknown transaction " +
                              std::to_string(t));
    }
    if (*tomb == TxnStatus::kCommitted) return Status::OK();
    return Status::TxnAborted("transaction " + std::to_string(t) +
                              " aborted");
  }
  TdPin pin(td);
  if (td->session && td->status == TxnStatus::kRunning) {
    // A session transaction's code is "done" when the caller commits.
    td->status = TxnStatus::kCompleted;
  }
  for (;;) {  // the paper's "blocks and retries later starting at step 1"
    switch (td->status.load()) {
      case TxnStatus::kCommitted: {
        // Another thread committed our group. Honour the durability
        // policy for the ack just like the committing thread does.
        Lsn commit_lsn = td->commit_lsn;
        lk.unlock();
        return ack(commit_lsn);
      }
      case TxnStatus::kAborted:
        return Status::TxnAborted(AbortReasonLocked(td));
      case TxnStatus::kAborting:
        break;  // wait for the physical abort, then report failure
      case TxnStatus::kCompleted:
        td->status = TxnStatus::kCommitting;
        [[fallthrough]];
      case TxnStatus::kCommitting: {
        std::vector<TransactionDescriptor*> group;
        CommitEval eval = EvaluateCommitLocked(td, &group);
        if (eval == CommitEval::kCommit) {
          Lsn commit_lsn = CommitGroupLocked(group);
          // The durability wait (and its fsync) happens with the kernel
          // mutex released: concurrent committers pile onto the same
          // group-commit batch instead of queueing the kernel on the disk.
          lk.unlock();
          return ack(commit_lsn);
        }
        if (eval == CommitEval::kAbort) {
          // An abort/group dependency makes commit impossible: the whole
          // GC component aborts (§4.2 commit step 2a via abort step 4a).
          for (Tid m : deps_.GroupOf(t)) {
            if (TransactionDescriptor* mtd = FindLocked(m)) {
              StartAbortLocked(
                  mtd, "commit impossible: an abort or group-commit "
                       "dependency is unsatisfiable");
            }
          }
          break;  // wait until the abort lands, then report it
        }
        break;  // kWait
      }
      case TxnStatus::kInitiated:
      case TxnStatus::kRunning:
        break;  // commit blocks until execution completes (§2.1)
    }
    if (bounded) {
      if (td->lifecycle_cv.wait_until(lk, deadline) ==
          std::cv_status::timeout) {
        if (td->status == TxnStatus::kCommitted) {
          Lsn commit_lsn = td->commit_lsn;
          lk.unlock();
          return ack(commit_lsn);
        }
        if (td->status == TxnStatus::kAborted) {
          return Status::TxnAborted(AbortReasonLocked(td));
        }
        // Unresolvable within the bound: abort so the failure is true.
        StartAbortLocked(td, "commit timeout: dependencies unresolved "
                             "within the commit bound");
        return Status::TimedOut("commit: transaction " + std::to_string(t) +
                                " could not commit within the timeout and "
                                "was aborted");
      }
    } else {
      td->lifecycle_cv.wait(lk);
    }
  }
}

int TransactionManager::Wait(Tid t) {
  if (tls_current != nullptr && tls_current->tid == t) {
    // wait(self()) — the appendix uses it as "am I still viable?".
    TxnStatus s = tls_current->status.load(std::memory_order_acquire);
    return (s == TxnStatus::kAborting || s == TxnStatus::kAborted) ? 0 : 1;
  }
  std::unique_lock<std::mutex> lk(sync_.mu);
  TransactionDescriptor* td = FindLocked(t);
  if (td == nullptr) {
    return TombstoneLocked(t) == TxnStatus::kCommitted ? 1 : 0;
  }
  TdPin pin(td);
  for (;;) {
    switch (td->status.load()) {
      case TxnStatus::kCompleted:
      case TxnStatus::kCommitting:
      case TxnStatus::kCommitted:
        return 1;
      case TxnStatus::kAborting:
      case TxnStatus::kAborted:
        return 0;
      case TxnStatus::kInitiated:
      case TxnStatus::kRunning:
        td->lifecycle_cv.wait(lk);
        break;
    }
  }
}

bool TransactionManager::Abort(Tid t) { return AbortTxn(t).ok(); }

Status TransactionManager::AbortTxn(Tid t) {
  std::unique_lock<std::mutex> lk(sync_.mu);
  TransactionDescriptor* td = FindLocked(t);
  if (td == nullptr) {
    if (TombstoneLocked(t) == TxnStatus::kCommitted) {
      return Status::IllegalState("abort: transaction " + std::to_string(t) +
                                  " already committed");
    }
    return Status::OK();
  }
  TdPin pin(td);
  for (;;) {
    switch (td->status.load()) {
      case TxnStatus::kCommitted:
        return Status::IllegalState("abort: transaction " +
                                    std::to_string(t) +
                                    " already committed");
      case TxnStatus::kAborted:
        return Status::OK();
      case TxnStatus::kAborting:
        // Someone (possibly us, one iteration ago) is already aborting
        // it; wait for the physical abort to finish.
        if (tls_current == td) return Status::OK();  // finishes at exit
        td->lifecycle_cv.wait(lk);
        break;
      default:
        StartAbortLocked(td, "explicit abort");
        if (tls_current == td) {
          // abort(self()): the physical abort runs when our function
          // returns; report success now.
          return Status::OK();
        }
        break;
    }
  }
}

Tid TransactionManager::Self() {
  return tls_current != nullptr ? tls_current->tid : kNullTid;
}

Tid TransactionManager::Parent() {
  return tls_current != nullptr ? tls_current->parent : kNullTid;
}

Tid TransactionManager::ParentOf(Tid t) const {
  std::lock_guard<std::mutex> lk(sync_.mu);
  const TransactionDescriptor* td = FindLocked(t);
  return td != nullptr ? td->parent : kNullTid;
}

TxnStatus TransactionManager::GetStatus(Tid t) const {
  std::lock_guard<std::mutex> lk(sync_.mu);
  return StatusOfLocked(t);
}

// ---------------------------------------------------------------------------
// Commit machinery

TransactionManager::CommitEval TransactionManager::EvaluateCommitLocked(
    TransactionDescriptor* td, std::vector<TransactionDescriptor*>* group) {
  group->clear();
  std::vector<Tid> member_tids = deps_.GroupOf(td->tid);
  std::unordered_set<Tid> in_group(member_tids.begin(), member_tids.end());
  for (Tid m : member_tids) {
    TransactionDescriptor* mtd = FindLocked(m);
    if (mtd == nullptr) {
      // Terminated and collected; GC edges are removed at termination,
      // so this should not happen — fail safe.
      return CommitEval::kAbort;
    }
    group->push_back(mtd);
  }
  // Every member must have completed execution and not be aborting
  // (commit blocks until execution completes; GC commits as one).
  for (TransactionDescriptor* m : *group) {
    switch (m->status.load()) {
      case TxnStatus::kAborting:
      case TxnStatus::kAborted:
        return CommitEval::kAbort;
      case TxnStatus::kInitiated:
      case TxnStatus::kRunning:
        return CommitEval::kWait;
      default:
        break;
    }
  }
  // §4.2 commit step 2: outgoing CD/AD dependencies of every member on
  // transactions outside the group.
  for (TransactionDescriptor* m : *group) {
    for (const Dependency& d : deps_.DependenciesOf(m->tid)) {
      if (d.type == DependencyType::kGroupCommit) continue;
      if (d.type == DependencyType::kBeginOnBegin ||
          d.type == DependencyType::kBeginOnCommit) {
        continue;  // satisfied at begin() time, no commit constraint
      }
      if (in_group.count(d.dependee) != 0) continue;  // commits with us
      TxnStatus xs = StatusOfLocked(d.dependee);
      if (d.type == DependencyType::kAbort) {
        // 2a: wait until the dependee commits; its abort dooms us.
        if (xs == TxnStatus::kAborted) return CommitEval::kAbort;
        if (xs != TxnStatus::kCommitted) return CommitEval::kWait;
      } else {
        // 2b: CD — wait until the dependee terminates either way.
        if (!IsTerminated(xs)) return CommitEval::kWait;
      }
    }
  }
  return CommitEval::kCommit;
}

Lsn TransactionManager::CommitGroupLocked(
    const std::vector<TransactionDescriptor*>& group) {
  // §4.2 commit step 4: append (only — never flush) each member's
  // commit record. Append is a short in-memory critical section; the
  // fsync that makes these records durable is led by a committer in
  // AwaitCommitDurable, after the kernel mutex is released. Holding the
  // kernel mutex across device I/O is the exact stall this removes.
  Lsn group_lsn = kNullLsn;
  for (TransactionDescriptor* m : group) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.tid = m->tid;
    m->commit_lsn = log_->Append(std::move(rec));
    group_lsn = std::max(group_lsn, m->commit_lsn);
  }
  // Snapshot the dependents before the members' edges are removed; they
  // are exactly the transactions whose commit evaluation or begin gate
  // this commit can unblock.
  std::vector<Tid> watchers;
  for (TransactionDescriptor* m : group) {
    for (const Dependency& d : deps_.DependenciesOn(m->tid)) {
      watchers.push_back(d.dependent);
    }
  }
  for (TransactionDescriptor* m : group) {
    m->status = TxnStatus::kCommitted;
    m->responsible_ops.clear();
    locks_.ReleaseAll(m);                  // step 6 (wakes lock waiters)
    permit_table_.RemoveAllFor(m->tid);    // step 6
    deps_.RemoveAllFor(m->tid);            // step 5
    if (m->begun) active_count_--;
    unterminated_count_--;
    stats_.txns_committed.fetch_add(1, std::memory_order_relaxed);
    // One event per member: a group commit shows every peer committing
    // at (essentially) the same timestamp with its own commit lsn.
    recorder_.Emit(TraceEventType::kTxnCommit, m->tid, kNullTid,
                   kNullObjectId, m->commit_lsn);
    NotifyTxnLocked(m);       // Commit/Wait sleepers on this member
    m->lock_wait.Notify();    // a straggling lock request fails fast
  }
  if (group.size() > 1) {
    stats_.group_commits.fetch_add(1, std::memory_order_relaxed);
  }
  for (Tid w : watchers) {
    if (TransactionDescriptor* wtd = FindLocked(w)) NotifyTxnLocked(wtd);
    // The commit evaluation of w's group may be sleeping on any member's
    // cv (whoever called commit first), not necessarily w's own.
    WakeGroupLocked(w);
  }
  return group_lsn;
}

Status TransactionManager::AwaitCommitDurable(Tid t, Lsn commit_lsn,
                                              Lsn* gate) {
  if (!options_.force_log_at_commit || commit_lsn == kNullLsn) {
    return Status::OK();
  }
  if (options_.durability == DurabilityPolicy::kRelaxed) {
    // No wait — but a sticky flush failure still surfaces. Acking OK
    // forever after the disk died would lose arbitrarily many commits,
    // not the bounded tail relaxed mode promises.
    return log_->RequestFlush(commit_lsn);
  }
  if (log_->durable_lsn() < commit_lsn) {
    // The ack actually has to lead or follow a flush (vs riding a batch
    // that already landed).
    stats_.commit_stalls.fetch_add(1, std::memory_order_relaxed);
    if (gate != nullptr && log_->file_backed()) {
      *gate = commit_lsn;  // the caller acks once the flush lands
      return Status::OK();
    }
    int64_t stall_start_ns = FlightRecorder::NowNs();
    Status s = log_->WaitDurable(commit_lsn);
    int64_t dur = FlightRecorder::NowNs() - stall_start_ns;
    recorder_.Emit(TraceEventType::kCommitStall, t, kNullTid, kNullObjectId,
                   commit_lsn, dur < 0 ? 0 : dur);
    return s;
  }
  return log_->WaitDurable(commit_lsn);
}

// ---------------------------------------------------------------------------
// Abort machinery

void TransactionManager::MarkAbortingLocked(TransactionDescriptor* td,
                                            std::string reason) {
  switch (td->status.load()) {
    case TxnStatus::kCommitted:
    case TxnStatus::kAborted:
    case TxnStatus::kAborting:
      return;
    default:
      break;
  }
  td->status = TxnStatus::kAborting;
  if (td->abort_reason.empty()) td->abort_reason = std::move(reason);
  // Doom is observable at once: Wait/Commit sleepers on this
  // transaction, a blocked lock request of its own, and its group peers'
  // commit evaluations.
  NotifyTxnLocked(td);
  td->lock_wait.Notify();
  WakeGroupLocked(td->tid);
}

void TransactionManager::StartAbortLocked(TransactionDescriptor* td,
                                          std::string reason) {
  switch (td->status.load()) {
    case TxnStatus::kCommitted:
    case TxnStatus::kAborted:
    case TxnStatus::kAborting:
      return;
    default:
      break;
  }
  MarkAbortingLocked(td, std::move(reason));
  FinishAbortClosureLocked(td);
}

void TransactionManager::FinishAbortClosureLocked(
    TransactionDescriptor* seed) {
  // §4.2 abort step 4 (propagation), computed up front: the set of
  // transactions doomed with `seed`, following AD/GC/BCD edges and BDs
  // whose dependee never began. CDs on an aborted transaction dissolve
  // (step 4b) — at finalization, below.
  std::vector<TransactionDescriptor*> doomed{seed};
  std::unordered_set<Tid> seen{seed->tid};
  for (size_t i = 0; i < doomed.size(); ++i) {
    TransactionDescriptor* m = doomed[i];
    for (const Dependency& d : deps_.DependenciesOn(m->tid)) {
      bool dooms = false;
      switch (d.type) {
        case DependencyType::kCommit:
          break;  // dissolves
        case DependencyType::kBeginOnBegin:
          dooms = !m->begun;  // satisfied forever once m began
          break;
        case DependencyType::kBeginOnCommit:
        case DependencyType::kAbort:
        case DependencyType::kGroupCommit:
          dooms = true;  // 4a and the begin-dependency analogue
          break;
      }
      if (!dooms || !seen.insert(d.dependent).second) continue;
      TransactionDescriptor* dep = FindLocked(d.dependent);
      if (dep == nullptr || IsTerminated(dep->status)) continue;
      MarkAbortingLocked(dep, "abort propagated from transaction " +
                                  std::to_string(m->tid) + " (" +
                                  DependencyTypeToString(d.type) +
                                  " dependency)");
      doomed.push_back(dep);
    }
  }
  // If any doomed member's thread is still running, or any member has a
  // cross-thread data operation in flight (op_pins — session
  // transactions always take that path), defer the physical abort of
  // the WHOLE closure: cooperating members may hold interleaved writes
  // on shared objects, undoing one member while a later writer has not
  // yet undone would install stale before images, and releasing locks
  // under an in-flight operation would let its object descriptors be
  // reclaimed (and its applied-but-unregistered write escape undo). The
  // running member's thread exit — or the last op unpin — re-enters
  // this function and completes the closure (new data operations fail
  // fast now that the members are marked).
  for (TransactionDescriptor* m : doomed) {
    if (m->status != TxnStatus::kAborting) continue;
    if (!m->thread_exited || m->op_pins.load() > 0) return;
  }
  std::vector<TransactionDescriptor*> finalizable;
  for (TransactionDescriptor* m : doomed) {
    if (m->status == TxnStatus::kAborting) finalizable.push_back(m);
  }
  if (finalizable.empty()) return;
  // Step 2: install before images (with CLRs), merged across the
  // closure, in global reverse chronological order.
  Status undo = undo_.UndoSetLocked(finalizable, &locks_);
  assert(undo.ok());
  (void)undo;
  for (TransactionDescriptor* m : finalizable) FinalizeAbortLocked(m);
}

void TransactionManager::FinalizeAbortLocked(TransactionDescriptor* td) {
  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.tid = td->tid;
  log_->Append(std::move(rec));
  // Step 3: release locks (wakes the waiters on those objects).
  locks_.ReleaseAll(td);
  // Snapshot the dependents before edges are removed: every one of them
  // may be blocked on this transaction's fate.
  std::vector<Tid> watchers;
  for (const Dependency& d : deps_.DependenciesOn(td->tid)) {
    watchers.push_back(d.dependent);
  }
  // Step 5: drop edges (dooming was already decided by the closure walk;
  // surviving CDs on this transaction dissolve here) and permits.
  deps_.RemoveAllFor(td->tid);
  permit_table_.RemoveAllFor(td->tid);
  // Step 6.
  td->status = TxnStatus::kAborted;
  if (td->begun) active_count_--;
  unterminated_count_--;
  stats_.txns_aborted.fetch_add(1, std::memory_order_relaxed);
  recorder_.Emit(TraceEventType::kTxnAbort, td->tid, td->parent);
  NotifyTxnLocked(td);     // Abort/Commit/Wait sleepers on this txn
  td->lock_wait.Notify();  // a blocked lock request of its own fails fast
  for (Tid w : watchers) {
    if (TransactionDescriptor* wtd = FindLocked(w)) NotifyTxnLocked(wtd);
    // See CommitGroupLocked: the watcher's group evaluation may sleep on
    // a peer's cv.
    WakeGroupLocked(w);
  }
}

// ---------------------------------------------------------------------------
// New primitives (§2.2)

Status TransactionManager::Delegate(Tid ti, Tid tj, const ObjectSet& objs) {
  std::lock_guard<std::mutex> lk(sync_.mu);
  TransactionDescriptor* tdi = FindLocked(ti);
  TransactionDescriptor* tdj = FindLocked(tj);
  if (tdi == nullptr || tdj == nullptr) {
    return Status::NotFound("delegate: unknown transaction");
  }
  if (IsTerminated(tdi->status) || IsTerminated(tdj->status)) {
    return Status::IllegalState("delegate: transaction already terminated");
  }
  // Delegation *to* an initiated transaction is explicitly supported
  // (§2.2's noteworthy design decision).
  size_t moved =
      locks_.Delegate(tdi, tdj, objs);  // wakes waiters on moved objects
  permit_table_.RedirectGrantor(ti, tj, objs);
  undo_.DelegateLocked(tdi, tdj, objs);
  stats_.delegations.fetch_add(1, std::memory_order_relaxed);
  recorder_.Emit(TraceEventType::kDelegate, ti, tj, kNullObjectId, moved);
  // Redirected permits can admit waiters on objects whose locks did NOT
  // move (tj already held them); let every blocked requester re-check.
  WakeLockWaitersLocked();
  return Status::OK();
}

Status TransactionManager::Delegate(Tid ti, Tid tj) {
  return Delegate(ti, tj, ObjectSet::All());
}

Status TransactionManager::Permit(Tid ti, Tid tj, const ObjectSet& objs,
                                  OpSet ops) {
  std::lock_guard<std::mutex> lk(sync_.mu);
  TransactionDescriptor* tdi = FindLocked(ti);
  if (tdi == nullptr) return Status::NotFound("permit: unknown grantor");
  if (IsTerminated(tdi->status)) {
    return Status::IllegalState("permit: grantor already terminated");
  }
  if (tj != kNullTid) {
    TransactionDescriptor* tdj = FindLocked(tj);
    if (tdj == nullptr) return Status::NotFound("permit: unknown grantee");
    if (IsTerminated(tdj->status)) {
      return Status::IllegalState("permit: grantee already terminated");
    }
  }
  ObjectSet concrete = objs;
  if (objs.IsAll()) {
    // §4.2: expand over the objects the grantor accessed or has
    // permission to access.
    concrete = locks_.LockedObjects(tdi).Union(
        permit_table_.ObjectsPermittedTo(ti));
  }
  size_t before = permit_table_.size();
  ASSET_RETURN_NOT_OK(permit_table_.Insert(ti, tj, std::move(concrete), ops));
  stats_.permits_inserted.fetch_add(1, std::memory_order_relaxed);
  size_t grew = permit_table_.size() - before;
  if (grew > 1) {
    stats_.permits_derived.fetch_add(grew - 1, std::memory_order_relaxed);
  }
  recorder_.Emit(TraceEventType::kPermit, ti, tj, kNullObjectId, grew);
  WakeLockWaitersLocked();  // a new permit can unblock lock waiters
  return Status::OK();
}

Status TransactionManager::Permit(Tid ti, Tid tj, OpSet ops) {
  return Permit(ti, tj, ObjectSet::All(), ops);
}

Status TransactionManager::Permit(Tid ti, Tid tj) {
  return Permit(ti, tj, ObjectSet::All(), OpSet::All());
}

Status TransactionManager::PermitAny(Tid ti, const ObjectSet& objs,
                                     OpSet ops) {
  return Permit(ti, kNullTid, objs, ops);
}

Status TransactionManager::FormDependency(DependencyType type, Tid ti,
                                          Tid tj) {
  std::lock_guard<std::mutex> lk(sync_.mu);
  TxnStatus si = StatusOfLocked(ti);
  TxnStatus sj = StatusOfLocked(tj);
  if (FindLocked(ti) == nullptr && !TombstoneLocked(ti)) {
    return Status::NotFound("form_dependency: unknown transaction ti");
  }
  if (FindLocked(tj) == nullptr && !TombstoneLocked(tj)) {
    return Status::NotFound("form_dependency: unknown transaction tj");
  }
  if (sj == TxnStatus::kAborted || sj == TxnStatus::kAborting) {
    return Status::OK();  // constraining an aborted dependent is vacuous
  }
  if (sj == TxnStatus::kCommitted) {
    return Status::IllegalState(
        "form_dependency: dependent already committed");
  }
  if (si == TxnStatus::kCommitted) {
    // CD/AD on a committed dependee can never fire; GC degenerates to
    // "tj commits normally". All vacuous.
    return Status::OK();
  }
  if (si == TxnStatus::kAborted || si == TxnStatus::kAborting) {
    if (type == DependencyType::kCommit) return Status::OK();
    if (type == DependencyType::kBeginOnBegin) {
      // Vacuous if the aborted dependee did begin at some point.
      const TransactionDescriptor* tdi = FindLocked(ti);
      if (tdi != nullptr && tdi->begun) return Status::OK();
    }
    return Status::IllegalState(
        "form_dependency: dependee already aborted; the dependency would "
        "be instantly violated");
  }
  Status s = deps_.Add(type, ti, tj);
  if (s.ok()) {
    stats_.dependencies_formed.fetch_add(1, std::memory_order_relaxed);
    recorder_.Emit(TraceEventType::kDependency, ti, tj, kNullObjectId,
                   static_cast<uint64_t>(type));
  } else if (s.code() == StatusCode::kDependencyCycle) {
    stats_.dependency_cycles_rejected.fetch_add(1,
                                                std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Data operations (§4.2)

TransactionManager::TxnRef::~TxnRef() {
  if (!pinned) return;
  // Drop the op pin first (seq_cst: pairs with the closure walk's
  // status-store-then-op_pins-load under the kernel mutex), then look at
  // the status. Either the closure walk sees our pin and defers — in
  // which case we observe kAborting here and finish the closure — or it
  // sees the pin already gone and finalizes itself. Both may happen;
  // FinishAbortClosureLocked is idempotent.
  td->op_pins.fetch_sub(1);
  if (td->status.load() == TxnStatus::kAborting) {
    std::lock_guard<std::mutex> lk(mgr->sync_.mu);
    mgr->FinishAbortClosureLocked(td);
  }
  td->pins.fetch_sub(1, std::memory_order_release);
}

Status TransactionManager::PrepareDataOp(Tid t, const char* what,
                                         bool distinguish_aborted,
                                         TxnRef* out) {
  TransactionDescriptor* td = tls_current;
  if (td != nullptr && td->tid == t) {
    // Fast path: the calling thread IS the transaction. Its TD cannot
    // be reclaimed while its thread runs (thread_exited is false), and
    // a closure abort defers finalization until the thread exits, so no
    // pin and no kernel mutex are needed — one atomic status load.
    TxnStatus s = td->status.load(std::memory_order_acquire);
    if (s != TxnStatus::kRunning) {
      return NotRunningError(what, s, distinguish_aborted);
    }
    out->td = td;
    return Status::OK();
  }
  std::lock_guard<std::mutex> lk(sync_.mu);
  td = FindLocked(t);
  if (td == nullptr) {
    return Status::NotFound(std::string(what) + ": unknown transaction");
  }
  TxnStatus s = td->status.load(std::memory_order_acquire);
  if (s != TxnStatus::kRunning) {
    return NotRunningError(what, s, distinguish_aborted);
  }
  // The op pin makes a concurrent abort of this transaction (explicit
  // AbortTxn from another thread, or propagation along a dependency)
  // defer its lock release and undo until this operation is out of the
  // kernel; the plain pin additionally blocks TD reclamation.
  td->pins.fetch_add(1, std::memory_order_relaxed);
  td->op_pins.fetch_add(1);
  out->mgr = this;
  out->td = td;
  out->pinned = true;
  return Status::OK();
}

Status TransactionManager::AcquireOrDoom(TransactionDescriptor* td,
                                         ObjectId oid, LockMode mode) {
  Status s = locks_.Acquire(td, oid, mode);
  if (s.IsDeadlock() || s.IsTimedOut()) {
    // Under strict two-phase locking these are unrecoverable for this
    // transaction: mark it aborting so a later commit cannot publish a
    // partial result the caller never noticed.
    std::lock_guard<std::mutex> lk(sync_.mu);
    StartAbortLocked(td, s.message());
  }
  return s;
}

Result<std::vector<uint8_t>> TransactionManager::Read(Tid t, ObjectId oid) {
  TxnRef ref;
  ASSET_RETURN_NOT_OK(PrepareDataOp(t, "read", /*distinguish_aborted=*/true,
                                    &ref));
  ASSET_RETURN_NOT_OK(AcquireOrDoom(ref.td, oid, LockMode::kRead));
  // §4.2 read: S-latch, read, unlatch. Holding our lock keeps the OD
  // alive (and the op pin keeps a concurrent abort from releasing it).
  ObjectDescriptor* od = locks_.Find(oid);
  if (od == nullptr) {
    return Status::TxnAborted("read: transaction " + std::to_string(t) +
                              " lost its lock on object " +
                              std::to_string(oid) + " mid-operation");
  }
  od->data_latch.LockShared();
  auto value = store_->Read(oid);
  od->data_latch.UnlockShared();
  stats_.reads.fetch_add(1, std::memory_order_relaxed);
  return value;
}

Status TransactionManager::Write(Tid t, ObjectId oid,
                                 std::span<const uint8_t> data) {
  TxnRef ref;
  ASSET_RETURN_NOT_OK(PrepareDataOp(t, "write", /*distinguish_aborted=*/true,
                                    &ref));
  ASSET_RETURN_NOT_OK(AcquireOrDoom(ref.td, oid, LockMode::kWrite));
  ObjectDescriptor* od = locks_.Find(oid);
  if (od == nullptr) {
    return Status::TxnAborted("write: transaction " + std::to_string(t) +
                              " lost its lock on object " +
                              std::to_string(oid) + " mid-operation");
  }
  // §4.2 write: X-latch; log before image; write; log after image.
  od->data_latch.LockExclusive();
  auto before = store_->Read(oid);
  if (!before.ok()) {
    od->data_latch.UnlockExclusive();
    return before.status();
  }
  // Track the append -> apply -> register span so a fuzzy checkpoint
  // drains it before snapshotting the active-transaction table.
  LogManager::ApplyGuard apply_guard(log_);
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.tid = t;
  rec.oid = oid;
  rec.before = std::move(before).value();
  rec.after.assign(data.begin(), data.end());
  Lsn lsn = log_->Append(std::move(rec));
  Status applied = store_->Write(oid, data);
  od->data_latch.UnlockExclusive();
  if (!applied.ok()) return applied;
  {
    std::lock_guard<std::mutex> lk(sync_.mu);
    undo_.RecordLocked(ref.td, lsn);
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<ObjectId> TransactionManager::CreateObject(
    Tid t, std::span<const uint8_t> data) {
  TxnRef ref;
  ASSET_RETURN_NOT_OK(PrepareDataOp(t, "create", /*distinguish_aborted=*/false,
                                    &ref));
  // Validate size before logging, so the log never carries a create
  // that cannot apply (or replay).
  if (data.size() > ObjectStore::MaxObjectSize()) {
    return Status::InvalidArgument("object larger than page capacity");
  }
  ObjectId oid = store_->AllocateId();
  Status locked = locks_.Acquire(ref.td, oid, LockMode::kWrite);
  if (!locked.ok()) {
    // Unreachable contention (the id is fresh), but the transaction may
    // have been marked aborting while we allocated. Nothing to undo:
    // neither the log nor the store has seen the object yet.
    return locked;
  }
  // §4.2 write-ahead, create-shaped: log first, then materialize. The
  // buffer pool samples the log position when the store dirties a page,
  // so the kCreate record must exist before the page mutation — else an
  // eviction could steal the page without forcing the record, and a
  // crash would resurrect the uncommitted object with no log record to
  // undo it.
  LogManager::ApplyGuard apply_guard(log_);
  LogRecord rec;
  rec.type = LogRecordType::kCreate;
  rec.tid = t;
  rec.oid = oid;
  rec.after.assign(data.begin(), data.end());
  Lsn lsn = log_->Append(std::move(rec));
  Status applied = store_->CreateWithId(oid, data);
  if (!applied.ok()) {
    // The create is logged but never materialized (store full, pool
    // eviction error). A later commit would still redo it, resurrecting
    // an object the caller was told failed — neutralize the record now
    // with a CLR instead of recording an undo, so the outcome is the
    // same whether the transaction commits or aborts.
    LogRecord clr;
    clr.type = LogRecordType::kClrDelete;
    clr.tid = t;
    clr.oid = oid;
    clr.undo_of = lsn;
    log_->Append(std::move(clr));
    return applied;
  }
  {
    std::lock_guard<std::mutex> lk(sync_.mu);
    undo_.RecordLocked(ref.td, lsn);
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  return oid;
}

Status TransactionManager::DeleteObject(Tid t, ObjectId oid) {
  TxnRef ref;
  ASSET_RETURN_NOT_OK(PrepareDataOp(t, "delete", /*distinguish_aborted=*/false,
                                    &ref));
  ASSET_RETURN_NOT_OK(AcquireOrDoom(ref.td, oid, LockMode::kWrite));
  ObjectDescriptor* od = locks_.Find(oid);
  if (od == nullptr) {
    return Status::TxnAborted("delete: transaction " + std::to_string(t) +
                              " lost its lock on object " +
                              std::to_string(oid) + " mid-operation");
  }
  od->data_latch.LockExclusive();
  auto before = store_->Read(oid);
  if (!before.ok()) {
    od->data_latch.UnlockExclusive();
    return before.status();
  }
  LogManager::ApplyGuard apply_guard(log_);
  LogRecord rec;
  rec.type = LogRecordType::kDelete;
  rec.tid = t;
  rec.oid = oid;
  rec.before = std::move(before).value();
  Lsn lsn = log_->Append(std::move(rec));
  Status applied = store_->ApplyDelete(oid);
  od->data_latch.UnlockExclusive();
  if (!applied.ok()) return applied;
  {
    std::lock_guard<std::mutex> lk(sync_.mu);
    undo_.RecordLocked(ref.td, lsn);
  }
  stats_.writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Semantic operations (paper §5)

Result<ObjectId> TransactionManager::CreateCounter(Tid t, int64_t initial) {
  return CreateObject(t, ObjectStore::EncodeCounter(kNullLsn, initial));
}

Status TransactionManager::Increment(Tid t, ObjectId oid, int64_t delta) {
  TxnRef ref;
  ASSET_RETURN_NOT_OK(PrepareDataOp(t, "increment",
                                    /*distinguish_aborted=*/true, &ref));
  ASSET_RETURN_NOT_OK(AcquireOrDoom(ref.td, oid, LockMode::kIncrement));
  ObjectDescriptor* od = locks_.Find(oid);
  if (od == nullptr) {
    return Status::TxnAborted("increment: transaction " + std::to_string(t) +
                              " lost its lock on object " +
                              std::to_string(oid) + " mid-operation");
  }
  od->data_latch.LockExclusive();
  // Validate counter shape before logging, so the log never carries an
  // increment that cannot replay.
  auto current = store_->ReadCounter(oid);
  if (!current.ok()) {
    od->data_latch.UnlockExclusive();
    return current.status();
  }
  LogManager::ApplyGuard apply_guard(log_);
  LogRecord rec;
  rec.type = LogRecordType::kIncrement;
  rec.tid = t;
  rec.oid = oid;
  rec.after = EncodeI64(delta);
  Lsn lsn = log_->Append(std::move(rec));
  auto applied = store_->ApplyDelta(oid, lsn, delta);
  od->data_latch.UnlockExclusive();
  if (!applied.ok()) return applied.status();
  {
    std::lock_guard<std::mutex> lk(sync_.mu);
    undo_.RecordLocked(ref.td, lsn);
  }
  stats_.increments.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<int64_t> TransactionManager::ReadCounter(Tid t, ObjectId oid) {
  auto bytes = Read(t, oid);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() != sizeof(Lsn) + sizeof(int64_t)) {
    return Status::InvalidArgument("object is not counter-shaped");
  }
  int64_t value;
  std::memcpy(&value, bytes->data() + sizeof(Lsn), sizeof(int64_t));
  return value;
}

// ---------------------------------------------------------------------------
// Introspection

size_t TransactionManager::ActiveTransactions() const {
  std::lock_guard<std::mutex> lk(sync_.mu);
  return active_count_;
}

std::vector<FuzzyCheckpointImage::TxnEntry>
TransactionManager::SnapshotActiveTransactions() const {
  std::lock_guard<std::mutex> lk(sync_.mu);
  std::vector<FuzzyCheckpointImage::TxnEntry> out;
  for (const auto& [tid, td] : txns_) {
    if (!td->begun || IsTerminated(td->status)) continue;
    FuzzyCheckpointImage::TxnEntry e;
    e.tid = tid;
    e.ops = td->responsible_ops;
    out.push_back(std::move(e));
  }
  return out;
}

KernelStateSnapshot TransactionManager::SnapshotState() const {
  KernelStateSnapshot snap;
  std::lock_guard<std::mutex> lk(sync_.mu);
  snap.transactions.reserve(txns_.size());
  for (const auto& [tid, td] : txns_) {
    KernelStateSnapshot::TxnInfo info;
    info.tid = tid;
    info.parent = td->parent;
    info.status = td->status.load(std::memory_order_acquire);
    info.session = td->session;
    {
      // lrds_mu is below the kernel mutex in the lock order (kernel.h),
      // so taking it here is legal; release/delegation mutate the list
      // under it from outside the kernel mutex.
      std::lock_guard<std::mutex> ll(td->lrds_mu);
      info.locks_held = td->lrds.size();
    }
    info.ops_responsible = td->responsible_ops.size();
    info.commit_lsn = td->commit_lsn;
    info.abort_reason = td->abort_reason;
    snap.transactions.push_back(std::move(info));
    if (!td->waiting_for.empty()) {
      KernelStateSnapshot::WaitEdge edge;
      edge.waiter = tid;
      edge.oid = td->waiting_for_oid;
      edge.blockers = td->waiting_for;
      snap.wait_for.push_back(std::move(edge));
    }
  }
  // Deterministic order for tests and diffing (the TD table iterates in
  // hash order).
  std::sort(snap.transactions.begin(), snap.transactions.end(),
            [](const auto& a, const auto& b) { return a.tid < b.tid; });
  std::sort(snap.wait_for.begin(), snap.wait_for.end(),
            [](const auto& a, const auto& b) { return a.waiter < b.waiter; });
  snap.dependencies = deps_.Edges();
  snap.permits = permit_table_.AllPermits();
  snap.last_deadlock_cycle = sync_.last_deadlock_cycle;
  return snap;
}

}  // namespace asset
