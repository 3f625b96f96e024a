#include "storage/recovery.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace asset {

namespace {

bool IsDataOp(LogRecordType t) {
  return t == LogRecordType::kCreate || t == LogRecordType::kUpdate ||
         t == LogRecordType::kDelete || t == LogRecordType::kIncrement;
}

}  // namespace

Result<RecoveryManager::Report> RecoveryManager::Recover(LogManager* log,
                                                         ObjectStore* store) {
  Report report;
  std::vector<LogRecord> records = log->ReadDurable();

  // Find the last durable checkpoint. It cuts the *analysis* at its
  // begin_lsn — its image seeds what the skipped scan would have found —
  // while redo must start at its min_recovery_lsn, the oldest update
  // that might live only in a cached page.
  Lsn analysis_start = 0;  // analysis scans records with lsn > this
  Lsn redo_start = 1;      // redo applies records with lsn >= this
  FuzzyCheckpointImage image;
  bool have_image = false;
  for (const LogRecord& rec : records) {
    if (rec.type != LogRecordType::kFuzzyCheckpoint) continue;
    auto img = FuzzyCheckpointImage::Decode(rec.after);
    if (!img.ok()) return img.status();
    image = std::move(img).value();
    have_image = true;
    analysis_start = image.begin_lsn;
    redo_start =
        (image.min_recovery_lsn == kNullLsn) ? 1 : image.min_recovery_lsn;
  }
  report.analysis_start_lsn = analysis_start;
  report.redo_start_lsn = redo_start;

  // Records by lsn, for undo and delegate-set replay. After truncation
  // the log no longer starts at lsn 1; every lsn recovery can need
  // (>= redo_start, by the truncation safety rule) is still present.
  std::unordered_map<Lsn, const LogRecord*> by_lsn;
  by_lsn.reserve(records.size());
  for (const LogRecord& rec : records) by_lsn[rec.lsn] = &rec;

  // --- Analysis ---------------------------------------------------------
  // Final responsibility for each data operation, after replaying
  // delegation; and terminal status of each transaction.
  std::unordered_map<Lsn, Tid> responsible;        // data-op lsn -> tid
  std::unordered_set<Lsn> compensated;             // data-op lsns undone by CLRs
  std::unordered_set<Tid> committed, aborted, seen;

  // Seed from the fuzzy checkpoint's active-transaction table: these
  // transactions and operations predate the cut, so the scan below
  // never sees them.
  if (have_image) {
    for (const FuzzyCheckpointImage::TxnEntry& e : image.active) {
      seen.insert(e.tid);
      for (Lsn l : e.ops) responsible[l] = e.tid;
    }
  }

  for (const LogRecord& rec : records) {
    if (rec.lsn <= analysis_start) continue;
    report.records_scanned++;
    switch (rec.type) {
      case LogRecordType::kBegin:
        seen.insert(rec.tid);
        break;
      case LogRecordType::kCreate:
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        seen.insert(rec.tid);
        responsible[rec.lsn] = rec.tid;
        break;
      case LogRecordType::kIncrement:
        if (rec.undo_of != kNullLsn) {
          // Compensation of an earlier increment: redo-only.
          compensated.insert(rec.undo_of);
        } else {
          seen.insert(rec.tid);
          responsible[rec.lsn] = rec.tid;
        }
        break;
      case LogRecordType::kCommit:
        committed.insert(rec.tid);
        break;
      case LogRecordType::kAbort:
        aborted.insert(rec.tid);
        break;
      case LogRecordType::kDelegateAll:
        for (auto& [lsn, tid] : responsible) {
          if (tid == rec.tid) tid = rec.other_tid;
        }
        seen.insert(rec.other_tid);
        break;
      case LogRecordType::kDelegateSet: {
        std::unordered_set<ObjectId> set(rec.oid_set.begin(),
                                         rec.oid_set.end());
        for (auto& [lsn, tid] : responsible) {
          if (tid != rec.tid) continue;
          auto op = by_lsn.find(lsn);
          if (op == by_lsn.end()) {
            return Status::Corruption(
                "delegated operation at lsn " + std::to_string(lsn) +
                " is missing from the log (unsafe truncation?)");
          }
          if (set.count(op->second->oid) != 0) {
            tid = rec.other_tid;
          }
        }
        seen.insert(rec.other_tid);
        break;
      }
      case LogRecordType::kClrPut:
      case LogRecordType::kClrDelete:
        if (rec.undo_of != kNullLsn) compensated.insert(rec.undo_of);
        break;
      case LogRecordType::kFuzzyCheckpoint:
        break;
    }
  }

  // --- Redo: repeat history ---------------------------------------------
  // From redo_start, not the analysis cut: under a fuzzy checkpoint,
  // updates in [min_recovery_lsn, begin_lsn] may live only in cached
  // pages that were never written back. Appliers are idempotent (full
  // after-images; delta applies conditional on the counter's
  // applied-lsn), so re-applying already-flushed effects is harmless.
  for (const LogRecord& rec : records) {
    if (rec.lsn < redo_start) continue;
    switch (rec.type) {
      case LogRecordType::kCreate:
      case LogRecordType::kUpdate:
        ASSET_RETURN_NOT_OK(store->ApplyPut(rec.oid, rec.after));
        report.redo_applied++;
        break;
      case LogRecordType::kDelete:
        ASSET_RETURN_NOT_OK(store->ApplyDelete(rec.oid));
        report.redo_applied++;
        break;
      case LogRecordType::kClrPut:
        ASSET_RETURN_NOT_OK(store->ApplyPut(rec.oid, rec.after));
        report.redo_applied++;
        break;
      case LogRecordType::kClrDelete:
        ASSET_RETURN_NOT_OK(store->ApplyDelete(rec.oid));
        report.redo_applied++;
        break;
      case LogRecordType::kIncrement: {
        auto delta = DecodeI64(rec.after);
        if (!delta.ok()) return delta.status();
        // Conditional on the counter's applied-lsn: already-applied
        // deltas (flushed before the crash) are skipped.
        auto applied = store->ApplyDelta(rec.oid, rec.lsn, *delta);
        if (!applied.ok() && !applied.status().IsNotFound()) {
          return applied.status();
        }
        report.redo_applied++;
        break;
      }
      default:
        break;
    }
  }

  // --- Undo losers -------------------------------------------------------
  // A loser is a transaction that owns at least one data op but has
  // neither committed nor been fully aborted (abort record present means
  // its CLRs are already in the log and were redone above).
  std::unordered_set<Tid> losers;
  for (const auto& [lsn, tid] : responsible) {
    if (committed.count(tid) == 0 && aborted.count(tid) == 0) {
      losers.insert(tid);
    }
  }
  // Also count began-but-write-free in-flight transactions as losers for
  // reporting (nothing to undo).
  for (Tid t : seen) {
    if (committed.count(t) == 0 && aborted.count(t) == 0) losers.insert(t);
  }

  // Walk the responsibility map (not the post-cut records): a loser in
  // the fuzzy checkpoint's ATT owns operations from before the analysis
  // cut, whose records are still retained (>= min_recovery_lsn).
  std::vector<const LogRecord*> to_undo;
  for (const auto& [lsn, tid] : responsible) {
    if (losers.count(tid) == 0) continue;
    if (compensated.count(lsn) != 0) continue;  // already undone
    auto it = by_lsn.find(lsn);
    if (it == by_lsn.end()) {
      return Status::Corruption(
          "loser operation at lsn " + std::to_string(lsn) +
          " is missing from the log (unsafe truncation?)");
    }
    if (!IsDataOp(it->second->type)) continue;
    to_undo.push_back(it->second);
  }
  std::sort(to_undo.begin(), to_undo.end(),
            [](const LogRecord* a, const LogRecord* b) {
              return a->lsn > b->lsn;  // reverse order
            });

  for (const LogRecord* rec : to_undo) {
    LogRecord clr;
    clr.tid = responsible[rec->lsn];
    clr.oid = rec->oid;
    clr.undo_of = rec->lsn;
    switch (rec->type) {
      case LogRecordType::kCreate:
        ASSET_RETURN_NOT_OK(store->ApplyDelete(rec->oid));
        clr.type = LogRecordType::kClrDelete;
        log->Append(std::move(clr));
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        ASSET_RETURN_NOT_OK(store->ApplyPut(rec->oid, rec->before));
        clr.type = LogRecordType::kClrPut;
        clr.after = rec->before;
        log->Append(std::move(clr));
        break;
      case LogRecordType::kIncrement: {
        auto delta = DecodeI64(rec->after);
        if (!delta.ok()) return delta.status();
        clr.type = LogRecordType::kIncrement;
        clr.after = EncodeI64(-*delta);
        Lsn clr_lsn = log->Append(std::move(clr));
        auto applied = store->ApplyDelta(rec->oid, clr_lsn, -*delta);
        if (!applied.ok() && !applied.status().IsNotFound()) {
          return applied.status();
        }
        break;
      }
      default:
        continue;
    }
    report.undo_applied++;
  }
  for (Tid t : losers) {
    LogRecord abort_rec;
    abort_rec.type = LogRecordType::kAbort;
    abort_rec.tid = t;
    log->Append(std::move(abort_rec));
  }
  ASSET_RETURN_NOT_OK(log->Flush());

  report.winners.assign(committed.begin(), committed.end());
  report.losers.assign(losers.begin(), losers.end());
  std::sort(report.winners.begin(), report.winners.end());
  std::sort(report.losers.begin(), report.losers.end());
  return report;
}

Result<Lsn> RecoveryManager::FuzzyCheckpoint(
    LogManager* log, BufferPool* pool, const AttSnapshot& att,
    std::chrono::milliseconds drain_timeout) {
  // 1. Push unpinned dirty pages out. Pinned pages stay dirty and are
  //    covered by the DPT instead — nothing blocks on them.
  ASSET_RETURN_NOT_OK(pool->FlushUnpinned());

  // 2. Cut the log. Everything at or below `begin` must be covered by
  //    either the ATT (uncommitted) or the DPT/disk (applied effects);
  //    everything above is scanned by analysis.
  const Lsn begin = log->last_lsn();

  // 3. Drain in-flight applies at or below the cut: an operation whose
  //    record is appended but whose store mutation / kernel
  //    registration has not finished would otherwise be invisible to
  //    both the ATT snapshot and the DPT.
  ASSET_RETURN_NOT_OK(log->WaitAppliedThrough(begin, drain_timeout));

  // 4. Snapshot. ATT first (under the kernel's mutex, atomic wrt
  //    commit/abort/delegate), then the DPT.
  FuzzyCheckpointImage image;
  image.begin_lsn = begin;
  if (att) image.active = att();
  image.dirty_pages = pool->DirtyPageTable();

  // 5. The redo/truncation watermark: nothing recovery can need is
  //    older than the oldest uncommitted operation or the oldest
  //    unflushed page update.
  Lsn min_recovery = begin + 1;
  for (const FuzzyCheckpointImage::TxnEntry& e : image.active) {
    for (Lsn l : e.ops) min_recovery = std::min(min_recovery, l);
  }
  for (const auto& [page, rec_lsn] : image.dirty_pages) {
    min_recovery =
        std::min(min_recovery, rec_lsn == kNullLsn ? Lsn{1} : rec_lsn);
  }
  image.min_recovery_lsn = min_recovery;

  LogRecord rec;
  rec.type = LogRecordType::kFuzzyCheckpoint;
  rec.after = image.Encode();
  Lsn lsn = log->Append(std::move(rec));
  ASSET_RETURN_NOT_OK(log->Flush(lsn));
  return lsn;
}

}  // namespace asset
