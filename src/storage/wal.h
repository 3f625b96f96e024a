#ifndef ASSET_STORAGE_WAL_H_
#define ASSET_STORAGE_WAL_H_

/// \file wal.h
/// Write-ahead log with before/after images and leader-follower group
/// commit.
///
/// The paper's write path (§4.2) logs the before image of an object, then
/// performs the write, then logs the after image; abort installs before
/// images (§4.2 abort step 2); commit places a commit record (§4.2 commit
/// step 4). We keep one record per update carrying both images.
///
/// Delegation (§2.2) transfers *responsibility* for uncommitted
/// operations between transactions. Because recovery must decide whether
/// an update wins by looking at the transaction that was responsible for
/// it *at the end*, delegation itself is logged (kDelegateAll /
/// kDelegateSet) and replayed during analysis.
///
/// Durability pipeline. The log is split into two sides so the append
/// fast path never waits on the disk:
///
///  - The *append* side assigns the lsn and, when the log is
///    file-backed, encodes the record into an in-memory log buffer —
///    all under one short critical section. Appending never performs
///    I/O and never blocks on a flush in progress.
///  - The *flush* side is leader-follower group commit, run by the
///    threads that need durability; the log starts no thread. A caller
///    of Flush/WaitDurable/RequestFlush publishes the lsn it needs. If
///    no flush is in progress it becomes the *leader*: it takes every
///    requested record, drops the log mutex for one pwrite at a tracked
///    file offset plus one fsync, advances `durable_lsn_`, and wakes the
///    waiters. Callers arriving meanwhile are *followers*: they sleep,
///    and one still not durable when the leader finishes leads the next
///    batch, which carries every request made during the I/O. So
///    concurrent committers share one fsync — the paper's group-commit
///    (GC) economics applied to the storage layer — and a lone caller
///    is synchronous by construction. With no device the leader only
///    advances `durable_lsn_`.
///
/// I/O errors are sticky: once a flush fails, the failure Status is
/// surfaced to every current and future durability waiter, and the
/// durable boundary stops advancing (the tail may be torn on disk; a
/// re-attach truncates it, exactly like a crash).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"

namespace asset {

enum class LogRecordType : uint8_t {
  /// Transaction began executing.
  kBegin = 1,
  /// Object created by `tid`; `after` holds the initial value.
  kCreate = 2,
  /// Object updated by `tid`; `before` and `after` hold the images.
  kUpdate = 3,
  /// Object deleted by `tid`; `before` holds the last value.
  kDelete = 4,
  /// Transaction (and any group-committed peers) committed.
  kCommit = 5,
  /// Transaction aborted (its undo has been applied).
  kAbort = 6,
  /// delegate(tid, other_tid): all of tid's responsibility moved.
  kDelegateAll = 7,
  /// delegate(tid, other_tid, oid_set): responsibility for operations on
  /// the listed objects moved.
  kDelegateSet = 8,
  // 9 is retired (it was a quiescent checkpoint); it decodes as
  // corruption.
  /// Compensation record: abort (runtime or recovery) restored object
  /// `oid` to the value in `after`; `undo_of` names the compensated
  /// update. Redo-only — never undone.
  kClrPut = 10,
  /// Compensation record: abort removed object `oid` (undoing a create).
  /// Redo-only.
  kClrDelete = 11,
  /// Commutative counter increment (§5 semantic operations): `after`
  /// holds the signed 64-bit delta. Applied conditionally on the
  /// counter's stored applied-lsn, so replay is idempotent despite
  /// being delta-based. A kIncrement with `undo_of` set is the
  /// compensation of an earlier increment (redo-only).
  kIncrement = 12,
  /// Online (fuzzy) checkpoint, taken while transactions keep running.
  /// `after` holds an encoded FuzzyCheckpointImage: the active
  /// transaction table (each active transaction's responsible-operation
  /// lsns), the dirty-page table (page -> recovery lsn), the cut point
  /// `begin_lsn`, and the derived `min_recovery_lsn`. Recovery starts
  /// its analysis after `begin_lsn` (seeding state from the image) and
  /// its redo at `min_recovery_lsn`.
  kFuzzyCheckpoint = 13,
};

/// The payload of a kFuzzyCheckpoint record: everything recovery needs
/// to avoid scanning the log from its origin, captured *without*
/// quiescing the kernel.
struct FuzzyCheckpointImage {
  /// One active (begun, unterminated) transaction at snapshot time and
  /// the lsns of the data operations it is currently responsible for
  /// (delegation already folded in — the kernel's responsible_ops).
  struct TxnEntry {
    Tid tid = kNullTid;
    std::vector<Lsn> ops;
  };

  /// The cut point: log end when the checkpoint began. Analysis resumes
  /// from begin_lsn + 1; every operation with lsn <= begin_lsn is
  /// covered by `active` (the checkpointer waits out in-flight applies
  /// before snapshotting).
  Lsn begin_lsn = kNullLsn;
  /// min(begin_lsn + 1, every active op lsn, every dirty-page recovery
  /// lsn): redo must start here, and the truncation safety rule is that
  /// no record with lsn >= min_recovery_lsn may ever be dropped while
  /// this is the last durable checkpoint.
  Lsn min_recovery_lsn = kNullLsn;
  /// Active transaction table (ATT).
  std::vector<TxnEntry> active;
  /// Dirty page table (DPT): page -> recovery lsn (lower bound on the
  /// lsn of any update the cached frame carries that may not be on
  /// disk). kNullLsn means "unknown"; recovery treats it as lsn 1.
  std::vector<std::pair<PageId, Lsn>> dirty_pages;

  std::vector<uint8_t> Encode() const;
  static Result<FuzzyCheckpointImage> Decode(const std::vector<uint8_t>& bytes);
};

/// Little-endian i64 payload helpers (kIncrement deltas).
std::vector<uint8_t> EncodeI64(int64_t v);
Result<int64_t> DecodeI64(const std::vector<uint8_t>& bytes);

/// One log record. `lsn` is assigned by LogManager::Append; lsns start at
/// 1 and are dense.
struct LogRecord {
  Lsn lsn = kNullLsn;
  LogRecordType type = LogRecordType::kBegin;
  Tid tid = kNullTid;
  Tid other_tid = kNullTid;  // delegate target
  ObjectId oid = kNullObjectId;
  /// For kClr*: the lsn of the update this record compensates.
  Lsn undo_of = kNullLsn;
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  std::vector<ObjectId> oid_set;  // kDelegateSet only

  /// Wire encoding: length-prefixed, checksummed frame.
  void EncodeTo(std::vector<uint8_t>* out) const;

  /// Decodes one record starting at `data + *offset`; advances *offset.
  /// Returns NotFound on a clean end of log, Corruption on a torn or
  /// damaged frame.
  static Result<LogRecord> DecodeFrom(const std::vector<uint8_t>& data,
                                      size_t* offset);
};

/// Pointers into a stats aggregate (KernelStats in practice) that the
/// log bumps as it works. Raw atomics rather than the struct itself so
/// the storage layer does not depend on the kernel's headers. All
/// pointers may be null.
struct WalStatsSink {
  std::atomic<uint64_t>* appends = nullptr;
  std::atomic<uint64_t>* fsyncs = nullptr;
  std::atomic<uint64_t>* records_flushed = nullptr;
  std::atomic<uint64_t>* truncations = nullptr;
  std::atomic<uint64_t>* records_truncated = nullptr;
  /// Per-flush pwrite+fsync duration samples (kernel's fsync_latency).
  LatencyHistogram* fsync_hist = nullptr;
  /// Flight recorder for kWalAppend / kWalFsync events.
  FlightRecorder* recorder = nullptr;
};

/// Append-only log. Thread-safe. Records become *durable* only when
/// flushed; SimulateCrash() discards the non-durable tail, which is how
/// recovery tests model power loss.
///
/// Optionally file-backed: AttachFile() loads the records persisted by
/// a previous process and makes every subsequent flush append the newly
/// durable records to the file and fsync it.
class LogManager {
 public:
  LogManager();
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Binds the log to `path`: existing records are loaded (all durable),
  /// future flushes append. Must be called before any Append. A torn
  /// tail from a mid-write crash is truncated, not an error.
  Status AttachFile(const std::string& path);

  /// Appends `rec`, assigning and returning its lsn. Never performs I/O
  /// and never waits for a flush in progress.
  Lsn Append(LogRecord rec);

  /// Makes all records with lsn <= `upto` durable (everything, if
  /// kNullLsn) and blocks until they are. Exactly `upto` is made
  /// durable, never more: the volatile tail beyond it stays volatile,
  /// which crash tests (and the buffer pool's page_lsn flushes) rely
  /// on. InvalidArgument if `upto` is beyond the end of the log; the
  /// sticky I/O error if a flush failed; IllegalState if SimulateCrash
  /// discarded the awaited tail while we slept.
  Status Flush(Lsn upto = kNullLsn);

  /// Blocks until `durable_lsn() >= lsn` or the log hits an I/O error,
  /// requesting a flush if one is needed. Equivalent to Flush(lsn); the
  /// name the commit path uses.
  Status WaitDurable(Lsn lsn) { return Flush(lsn); }

  /// Makes records up to `lsn` (everything, if kNullLsn) durable
  /// without waiting for a flush already in progress: leads a flush
  /// when none is running (and returns its status), otherwise leaves
  /// `lsn` to the running leader, which keeps leading until every such
  /// no-wait request is durable. The relaxed-durability commit path
  /// uses this, so its lost tail is bounded by one batch. Returns OK
  /// once the request is queued — unless the log already carries a
  /// sticky flush failure, which is returned so even no-wait committers
  /// learn the disk is gone (records past durable_lsn() will never
  /// land).
  Status RequestFlush(Lsn lsn = kNullLsn);

  Lsn last_lsn() const;
  Lsn durable_lsn() const;
  /// True once AttachFile bound the log to a file: making a record
  /// durable then costs device I/O (an in-memory log is durable by fiat).
  bool file_backed() const;

  /// Lsn of the most recent durable checkpoint record, or kNullLsn.
  Lsn last_checkpoint_lsn() const;

  /// The last durable checkpoint's min_recovery_lsn, or kNullLsn if no
  /// checkpoint is durable. Records strictly below this
  /// lsn are redundant and eligible for TruncatePrefix.
  Lsn checkpoint_min_recovery_lsn() const;

  /// Physically drops the log prefix made redundant by the last durable
  /// checkpoint. The target is min(`upto`, durable_lsn(),
  /// checkpoint_min_recovery_lsn() - 1); pass kNullLsn to truncate as
  /// far as is safe. Returns the number of records dropped (0 is a
  /// legal no-op, e.g. when no checkpoint is durable yet). For a
  /// file-backed log the retained records are rewritten to a temp file
  /// which atomically replaces the log, so a crash during truncation
  /// leaves either the old or the new file. IllegalState if the log
  /// already carries a sticky I/O error (the durable boundary is not
  /// trustworthy then).
  Result<size_t> TruncatePrefix(Lsn upto = kNullLsn);

  /// Total bytes ever appended (estimate; monotonic, survives
  /// truncation). The background checkpointer's log-bytes trigger
  /// watches the delta of this counter.
  uint64_t appended_bytes() const;

  /// RAII tracker for an in-flight data-operation apply: the span
  /// between appending a data record and the store mutation + kernel
  /// bookkeeping becoming visible. Construct *before* Append so the
  /// registered lower bound (current end + 1) is <= the lsn the append
  /// will assign. The fuzzy checkpointer uses WaitAppliedThrough to
  /// drain applies at or below its cut point before snapshotting the
  /// active-transaction table, so no operation can fall between "not in
  /// the ATT yet" and "lsn <= begin_lsn".
  class ApplyGuard {
   public:
    explicit ApplyGuard(LogManager* log);
    ~ApplyGuard();
    ApplyGuard(const ApplyGuard&) = delete;
    ApplyGuard& operator=(const ApplyGuard&) = delete;

   private:
    LogManager* log_;
    std::multiset<Lsn>::iterator it_;
  };

  /// Smallest lower bound among in-flight applies, or kNullLsn if none.
  /// Any data record with lsn < OldestApplying() has fully applied.
  Lsn OldestApplying() const;

  /// Blocks until every in-flight apply has a lower bound > `lsn` (so
  /// all data operations with lsn <= `lsn` are fully applied and
  /// registered with the kernel). TimedOut if `timeout` elapses first.
  Status WaitAppliedThrough(Lsn lsn, std::chrono::milliseconds timeout);

  /// Drops every record that was never flushed. Waits out a flush in
  /// progress first so the durable boundary is stable. Concurrent
  /// Flush/WaitDurable waiters whose target was discarded wake with
  /// IllegalState instead of sleeping forever.
  void SimulateCrash();

  /// Copy of record `lsn` (1-based). Must exist and must not have been
  /// truncated away.
  LogRecord At(Lsn lsn) const;

  /// Copies of all retained records, durable and not — the runtime
  /// view. After TruncatePrefix the first record's lsn is > 1.
  std::vector<LogRecord> ReadAll() const;

  /// Copies of retained durable records only — the recovery view.
  std::vector<LogRecord> ReadDurable() const;

  /// Serializes retained durable records to bytes (for file shipping)
  /// and back.
  std::vector<uint8_t> SerializeDurable() const;
  static Result<std::vector<LogRecord>> Deserialize(
      const std::vector<uint8_t>& bytes);

  /// Physically retained records (appended minus truncated).
  size_t size() const;

  /// Points the log's counters at a stats aggregate (the kernel's
  /// KernelStats). UnbindStats detaches only if `sink` is the one
  /// currently bound, so a stale owner cannot clear a newer binding.
  void BindStats(const WalStatsSink& sink);
  void UnbindStats(const WalStatsSink& sink);

 private:
  /// The one flush routine behind Flush and RequestFlush: returns once
  /// `target` is durable (or, unless `wait`, once a running leader will
  /// take it), leading a batch whenever no flush is in progress. `lk`
  /// holds mu_.
  Status FlushLocked(std::unique_lock<std::mutex>& lk, Lsn target,
                     bool wait);

  /// Leader: flushes every requested record in one batch, dropping mu_
  /// for the pwrite+fsync, and repeats while no-wait requests that no
  /// waiting follower will lead are outstanding. `lk` holds mu_.
  void LeadLocked(std::unique_lock<std::mutex>& lk);

  /// Byte range of records (from, target] in buf_. Caller holds mu_.
  std::pair<size_t, size_t> BatchRangeLocked(Lsn from, Lsn target) const;

  /// Bookkeeping after a flush attempt of (from, target] that wrote
  /// `nbytes` (0 when not file-backed): advances the durable boundary
  /// and checkpoint watermark, trims the consumed buffer prefix, bumps
  /// counters (`io_ns` — the pwrite+fsync wall time — feeds the fsync
  /// histogram and trace event when did_sync) — or records the sticky
  /// error. Caller holds mu_.
  void CompleteFlushLocked(Lsn from, Lsn target, size_t nbytes,
                           const Status& io, bool did_sync,
                           int64_t io_ns = 0);

  /// Tracks `r`, which just became durable: a kFuzzyCheckpoint moves
  /// the checkpoint watermarks. Caller holds mu_.
  void NoteDurableLocked(const LogRecord& r);

  mutable std::mutex mu_;
  /// Wakes durability waiters (boundary advanced, error, flush done).
  std::condition_variable durable_cv_;

  /// Retained records; records_[i] holds lsn truncated_ + 1 + i. The
  /// log's end lsn is truncated_ + records_.size().
  std::deque<LogRecord> records_;
  /// Count of records physically dropped by TruncatePrefix (== highest
  /// truncated lsn; the retained log starts at truncated_ + 1).
  Lsn truncated_ = 0;
  Lsn durable_lsn_ = kNullLsn;
  Lsn last_checkpoint_ = kNullLsn;
  /// min_recovery_lsn of the last durable checkpoint, kNullLsn if none.
  Lsn checkpoint_min_recovery_ = kNullLsn;
  /// Highest lsn any waiter or no-wait request asked to make durable.
  Lsn requested_lsn_ = kNullLsn;
  /// Highest lsn a blocking (Flush/WaitDurable) caller awaits. While it
  /// is past durable_lsn_, a follower will lead the next batch.
  Lsn waited_lsn_ = kNullLsn;
  /// Sticky: first flush failure; OK while the log is healthy.
  Status io_status_;
  /// A leader is doing device I/O with mu_ released.
  bool flush_in_progress_ = false;
  /// Bumped by SimulateCrash; lets sleeping durability waiters detect
  /// that the tail holding their target was discarded.
  uint64_t crash_epoch_ = 0;

  /// Lower bounds of in-flight data-operation applies (see ApplyGuard).
  std::multiset<Lsn> applying_;
  /// Wakes WaitAppliedThrough when an apply completes.
  std::condition_variable apply_cv_;
  /// Estimated bytes ever appended (monotonic).
  uint64_t appended_bytes_ = 0;

  /// File descriptor of the attached log file, or -1.
  int fd_ = -1;
  /// Path of the attached log file (TruncatePrefix rewrites it).
  std::string path_;
  /// Tracked append offset: end of the durable bytes in the file. The
  /// leader writes at this offset instead of trusting lseek(SEEK_END).
  off_t file_end_ = 0;

  /// In-memory log buffer (file-backed logs only): the wire encoding of
  /// records (buf_first_, buf_first_ + ends_.size()], appended by
  /// Append, consumed from the front by flushes. ends_[i] is the end
  /// offset in buf_ of record buf_first_ + 1 + i.
  std::vector<uint8_t> buf_;
  std::deque<size_t> ends_;
  Lsn buf_first_ = kNullLsn;

  WalStatsSink sink_;
};

}  // namespace asset

#endif  // ASSET_STORAGE_WAL_H_
