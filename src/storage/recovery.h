#ifndef ASSET_STORAGE_RECOVERY_H_
#define ASSET_STORAGE_RECOVERY_H_

/// \file recovery.h
/// Crash recovery from the write-ahead log.
///
/// The scheme is ARIES-flavored but value-logged:
///
///   1. *Analysis* — scan the durable log from the last checkpoint,
///      replaying delegation records so every create/update/delete ends
///      up attributed to the transaction that was *responsible* for it at
///      the end (the paper's delegation semantics, §2.2: delegated
///      operations commit iff the delegatee commits). Transactions with a
///      commit record are winners; transactions with an abort record were
///      already compensated by CLRs; everything else is a loser.
///   2. *Redo* — repeat history: apply every create/update/delete/CLR
///      forward, idempotently.
///   3. *Undo* — for each loser, install before images of its
///      uncompensated operations in reverse lsn order, appending CLRs and
///      a final abort record so that recovery is idempotent and can
///      itself crash safely.
///
/// There is one checkpoint, FuzzyCheckpoint(), and it is online: it
/// writes back unpinned dirty pages, then captures the
/// active-transaction table and the dirty-page table into a
/// kFuzzyCheckpoint record while transactions keep running. Recovery
/// seeds its analysis from the image and starts its redo at the image's
/// min_recovery_lsn; the log prefix below min_recovery_lsn is provably
/// redundant and may be truncated.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/object_store.h"
#include "storage/wal.h"

namespace asset {

/// Runs recovery and checkpoints.
class RecoveryManager {
 public:
  /// What recovery did, for observability and tests.
  struct Report {
    size_t records_scanned = 0;
    size_t redo_applied = 0;
    size_t undo_applied = 0;
    /// Analysis scanned records with lsn > this (the last durable
    /// checkpoint's cut point; 0 = log origin).
    Lsn analysis_start_lsn = 0;
    /// Redo applied records with lsn >= this (the last durable
    /// checkpoint's min_recovery_lsn; 1 = log origin).
    Lsn redo_start_lsn = 1;
    std::vector<Tid> winners;
    std::vector<Tid> losers;  // in-flight at crash, rolled back here
  };

  /// Rebuilds `store` to the committed state implied by `log`'s durable
  /// records. The store must be Open()ed. Appends CLR/abort records for
  /// losers and flushes the log.
  static Result<Report> Recover(LogManager* log, ObjectStore* store);

  /// Produces the active-transaction table for a fuzzy checkpoint: every
  /// begun, unterminated transaction with the lsns of the data
  /// operations it is currently responsible for. A std::function (not a
  /// TransactionManager*) so the storage layer stays independent of the
  /// kernel's headers; null means "no transactions" (storage-only use).
  using AttSnapshot = std::function<std::vector<FuzzyCheckpointImage::TxnEntry>()>;

  /// Online (fuzzy) checkpoint; never blocks user traffic. Protocol:
  /// write back unpinned dirty pages (one WAL force, short per-page
  /// lock holds), cut the log at B = last_lsn(), wait up to
  /// `drain_timeout` for in-flight applies at or below B to land, then
  /// snapshot the ATT and DPT, derive min_recovery_lsn = min(B + 1,
  /// every ATT op lsn, every DPT recovery lsn), and append + flush the
  /// kFuzzyCheckpoint record. Returns the record's lsn.
  static Result<Lsn> FuzzyCheckpoint(
      LogManager* log, BufferPool* pool, const AttSnapshot& att,
      std::chrono::milliseconds drain_timeout = std::chrono::milliseconds(30000));
};

}  // namespace asset

#endif  // ASSET_STORAGE_RECOVERY_H_
