// Crash-recovery tests: winners redone, losers undone, delegation
// replayed during analysis, CLR behaviour, checkpoints, idempotence.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "common/sys_hooks.h"
#include "storage/recovery.h"

namespace asset {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A minimal log-writing harness that plays the role of the transaction
// kernel: it appends the same records the kernel would and applies the
// same store mutations, so storage-level recovery can be tested in
// isolation from threading.
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : pool_(&disk_, 64), store_(&pool_) {
    EXPECT_TRUE(store_.Open().ok());
  }

  void Begin(Tid t) {
    LogRecord r;
    r.type = LogRecordType::kBegin;
    r.tid = t;
    log_.Append(std::move(r));
  }
  Lsn Create(Tid t, ObjectId oid, const std::string& v) {
    LogRecord r;
    r.type = LogRecordType::kCreate;
    r.tid = t;
    r.oid = oid;
    r.after = Bytes(v);
    Lsn lsn = log_.Append(std::move(r));
    EXPECT_TRUE(store_.ApplyPut(oid, Bytes(v)).ok());
    return lsn;
  }
  Lsn Update(Tid t, ObjectId oid, const std::string& from,
             const std::string& to) {
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.tid = t;
    r.oid = oid;
    r.before = Bytes(from);
    r.after = Bytes(to);
    Lsn lsn = log_.Append(std::move(r));
    EXPECT_TRUE(store_.ApplyPut(oid, Bytes(to)).ok());
    return lsn;
  }
  Lsn DeleteObj(Tid t, ObjectId oid, const std::string& last) {
    LogRecord r;
    r.type = LogRecordType::kDelete;
    r.tid = t;
    r.oid = oid;
    r.before = Bytes(last);
    Lsn lsn = log_.Append(std::move(r));
    EXPECT_TRUE(store_.ApplyDelete(oid).ok());
    return lsn;
  }
  void Commit(Tid t) {
    LogRecord r;
    r.type = LogRecordType::kCommit;
    r.tid = t;
    log_.Append(std::move(r));
    log_.Flush();
  }
  void DelegateAll(Tid from, Tid to) {
    LogRecord r;
    r.type = LogRecordType::kDelegateAll;
    r.tid = from;
    r.other_tid = to;
    log_.Append(std::move(r));
  }
  void DelegateSet(Tid from, Tid to, std::vector<ObjectId> oids) {
    LogRecord r;
    r.type = LogRecordType::kDelegateSet;
    r.tid = from;
    r.other_tid = to;
    r.oid_set = std::move(oids);
    log_.Append(std::move(r));
  }

  // Crash: flush the WAL up to `durable_tail` semantics already applied
  // via Commit() flushes, drop caches, reopen, recover.
  RecoveryManager::Report Crash() {
    log_.SimulateCrash();
    pool_.DropAllUnflushed();
    EXPECT_TRUE(store_.Open().ok());
    auto report = RecoveryManager::Recover(&log_, &store_);
    EXPECT_TRUE(report.ok());
    return *report;
  }

  std::string Value(ObjectId oid) {
    auto v = store_.Read(oid);
    if (!v.ok()) return "<missing>";
    return std::string(v->begin(), v->end());
  }

  InMemoryDiskManager disk_;
  BufferPool pool_;
  ObjectStore store_;
  LogManager log_;
};

TEST_F(RecoveryTest, CommittedCreateSurvivesCrash) {
  Begin(1);
  Create(1, 10, "kept");
  Commit(1);
  auto report = Crash();
  EXPECT_EQ(Value(10), "kept");
  EXPECT_EQ(report.winners, (std::vector<Tid>{1}));
  EXPECT_TRUE(report.losers.empty());
}

TEST_F(RecoveryTest, UnloggedTailIsLost) {
  Begin(1);
  Create(1, 10, "kept");
  Commit(1);
  Begin(2);
  Create(2, 11, "never-flushed");
  // No commit, no flush: record is not durable.
  Crash();
  EXPECT_EQ(Value(10), "kept");
  EXPECT_EQ(Value(11), "<missing>");
}

TEST_F(RecoveryTest, InFlightUpdateIsRolledBack) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Update(2, 10, "v0", "v1");
  log_.Flush();  // durable but uncommitted
  pool_.FlushAll().ok();  // and even on disk (steal)
  auto report = Crash();
  EXPECT_EQ(Value(10), "v0");
  EXPECT_EQ(report.losers, (std::vector<Tid>{2}));
  EXPECT_EQ(report.undo_applied, 1u);
}

TEST_F(RecoveryTest, InFlightCreateIsRemoved) {
  Begin(1);
  Create(1, 10, "ghost");
  log_.Flush();
  Crash();
  EXPECT_EQ(Value(10), "<missing>");
}

TEST_F(RecoveryTest, InFlightDeleteIsRestored) {
  Begin(1);
  Create(1, 10, "precious");
  Commit(1);
  Begin(2);
  DeleteObj(2, 10, "precious");
  log_.Flush();
  Crash();
  EXPECT_EQ(Value(10), "precious");
}

TEST_F(RecoveryTest, MultipleUpdatesUndoneInReverseOrder) {
  Begin(1);
  Create(1, 10, "a");
  Commit(1);
  Begin(2);
  Update(2, 10, "a", "b");
  Update(2, 10, "b", "c");
  Update(2, 10, "c", "d");
  log_.Flush();
  Crash();
  EXPECT_EQ(Value(10), "a");
}

TEST_F(RecoveryTest, DelegatedOpsCommitWithDelegatee) {
  // t2 updates, delegates to t3; t3 commits; t2 never commits. The
  // update must survive: responsibility moved (§2.2).
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Begin(3);
  Update(2, 10, "v0", "v1");
  DelegateAll(2, 3);
  Commit(3);
  auto report = Crash();
  EXPECT_EQ(Value(10), "v1");
  EXPECT_EQ(report.winners, (std::vector<Tid>{1, 3}));
}

TEST_F(RecoveryTest, DelegatedOpsDieWithDelegatee) {
  // t2 updates, delegates to t3; t2 commits but t3 does not: the update
  // belongs to t3 now and must be undone.
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Begin(3);
  Update(2, 10, "v0", "v1");
  DelegateAll(2, 3);
  Commit(2);
  Crash();
  EXPECT_EQ(Value(10), "v0");
}

TEST_F(RecoveryTest, DelegateSetMovesOnlyNamedObjects) {
  Begin(1);
  Create(1, 10, "x0");
  Create(1, 11, "y0");
  Commit(1);
  Begin(2);
  Begin(3);
  Update(2, 10, "x0", "x1");
  Update(2, 11, "y0", "y1");
  DelegateSet(2, 3, {10});  // only object 10 moves to t3
  Commit(3);                 // t3 commits (object 10 wins)
  // t2 never commits (object 11's update loses)
  Crash();
  EXPECT_EQ(Value(10), "x1");
  EXPECT_EQ(Value(11), "y0");
}

TEST_F(RecoveryTest, ChainedDelegationFollowsFinalResponsible) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Begin(3);
  Begin(4);
  Update(2, 10, "v0", "v1");
  DelegateAll(2, 3);
  DelegateAll(3, 4);
  Commit(4);
  Crash();
  EXPECT_EQ(Value(10), "v1");
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Update(2, 10, "v0", "v1");
  log_.Flush();
  Crash();
  EXPECT_EQ(Value(10), "v0");
  // Crash again immediately (recovery appended CLRs + abort, flushed):
  // a second recovery must change nothing.
  auto report2 = Crash();
  EXPECT_EQ(Value(10), "v0");
  EXPECT_EQ(report2.undo_applied, 0u);
}

TEST_F(RecoveryTest, RuntimeAbortWithClrsIsNotReundone) {
  // Simulate the kernel's runtime abort: undo applied, CLRs + abort
  // logged, everything flushed. Then a later transaction commits a new
  // value. Recovery must keep the later value.
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Lsn up = Update(2, 10, "v0", "v1");
  // Runtime abort of t2:
  {
    LogRecord clr;
    clr.type = LogRecordType::kClrPut;
    clr.tid = 2;
    clr.oid = 10;
    clr.undo_of = up;
    clr.after = Bytes("v0");
    log_.Append(std::move(clr));
    EXPECT_TRUE(store_.ApplyPut(10, Bytes("v0")).ok());
    LogRecord ab;
    ab.type = LogRecordType::kAbort;
    ab.tid = 2;
    log_.Append(std::move(ab));
    log_.Flush();
  }
  Begin(3);
  Update(3, 10, "v0", "v2");
  Commit(3);
  Crash();
  EXPECT_EQ(Value(10), "v2");  // t2's before image must NOT clobber t3
}

TEST_F(RecoveryTest, CheckpointBoundsRecoveryScope) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  ASSERT_TRUE(RecoveryManager::FuzzyCheckpoint(&log_, &pool_, nullptr).ok());
  Begin(2);
  Update(2, 10, "v0", "v1");
  Commit(2);
  auto report = Crash();
  EXPECT_EQ(Value(10), "v1");
  // Only the checkpoint record and the records after it were scanned.
  EXPECT_LE(report.records_scanned, 4u);
}

TEST_F(RecoveryTest, WriteFreeTransactionsAreHarmless) {
  Begin(1);
  log_.Flush();
  auto report = Crash();
  EXPECT_EQ(report.losers, (std::vector<Tid>{1}));
  EXPECT_EQ(report.undo_applied, 0u);
}

TEST_F(RecoveryTest, InterleavedWinnersAndLosersOnDistinctObjects) {
  Begin(1);
  Begin(2);
  Create(1, 10, "w");
  Create(2, 11, "l");
  Commit(1);
  log_.Flush();
  Crash();
  EXPECT_EQ(Value(10), "w");
  EXPECT_EQ(Value(11), "<missing>");
}

// --- Fuzzy (online) checkpoints --------------------------------------

TEST_F(RecoveryTest, FuzzyCheckpointWithActiveTransactionBoundsScan) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Lsn up = Update(2, 10, "v0", "v1");  // still uncommitted at checkpoint
  // Checkpoint while t2 is active: the ATT carries t2's op so recovery
  // can undo it without scanning the pre-checkpoint log for analysis.
  auto ckpt = RecoveryManager::FuzzyCheckpoint(
      &log_, &pool_,
      [&] {
        return std::vector<FuzzyCheckpointImage::TxnEntry>{{2, {up}}};
      },
      std::chrono::milliseconds(1000));
  ASSERT_TRUE(ckpt.ok());
  Begin(3);
  Create(3, 11, "post");
  Commit(3);
  auto report = Crash();
  EXPECT_EQ(Value(10), "v0");  // t2 undone from the image's op list
  EXPECT_EQ(Value(11), "post");
  EXPECT_EQ(report.losers, (std::vector<Tid>{2}));
  // Analysis resumed at the checkpoint's cut point: the checkpoint
  // record plus t3's three records, not the history before it.
  EXPECT_LE(report.records_scanned, 4u);
  EXPECT_EQ(report.analysis_start_lsn, *ckpt - 1);
}

TEST_F(RecoveryTest, CrashBetweenPageFlushAndCheckpointRecord) {
  // Satellite: the checkpointer crashes after writing pages back but
  // before its checkpoint record lands. Recovery must fall back to the
  // log origin and still be correct (the flush is harmless, the
  // checkpoint simply never happened).
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Update(2, 10, "v0", "v1");
  log_.Flush();
  ASSERT_TRUE(pool_.FlushUnpinned().ok());  // page flush, no record
  auto report = Crash();
  EXPECT_EQ(Value(10), "v0");
  EXPECT_EQ(report.analysis_start_lsn, 0u);  // scanned from the origin
  EXPECT_EQ(report.losers, (std::vector<Tid>{2}));
}

TEST_F(RecoveryTest, NonDurableFuzzyCheckpointIsIgnored) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  // A checkpoint record that never became durable (crash mid-append):
  // recovery must not see it and must scan from the origin.
  FuzzyCheckpointImage image;
  image.begin_lsn = log_.last_lsn();
  image.min_recovery_lsn = log_.last_lsn() + 1;
  LogRecord ck;
  ck.type = LogRecordType::kFuzzyCheckpoint;
  ck.after = image.Encode();
  log_.Append(std::move(ck));  // NOT flushed
  Begin(2);
  Update(2, 10, "v0", "v1");
  // Not flushed either: both the checkpoint and the update vanish.
  auto report = Crash();
  EXPECT_EQ(Value(10), "v0");
  EXPECT_EQ(report.analysis_start_lsn, 0u);
}

TEST_F(RecoveryTest, TruncationAfterFuzzyCheckpointShrinksAndRecovers) {
  Begin(1);
  Create(1, 10, "a");
  Commit(1);
  Begin(2);
  Update(2, 10, "a", "b");
  Commit(2);
  auto ckpt = RecoveryManager::FuzzyCheckpoint(
      &log_, &pool_, nullptr, std::chrono::milliseconds(1000));
  ASSERT_TRUE(ckpt.ok());
  size_t before = log_.size();
  auto dropped = log_.TruncatePrefix();
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(*dropped, 0u);
  EXPECT_LT(log_.size(), before);  // physically shorter
  Begin(3);
  Update(3, 10, "b", "c");
  Commit(3);
  auto report = Crash();
  EXPECT_EQ(Value(10), "c");
  EXPECT_LE(report.records_scanned, 4u);
  // Recover once more on the truncated log: still stable.
  Crash();
  EXPECT_EQ(Value(10), "c");
}

TEST_F(RecoveryTest, TruncationRetainsActiveTransactionOps) {
  Begin(1);
  Create(1, 10, "v0");
  Commit(1);
  Begin(2);
  Lsn up = Update(2, 10, "v0", "v1");
  log_.Flush();
  // t2 is active: min_recovery_lsn <= up, so truncation must keep t2's
  // update even though the checkpoint is later in the log.
  auto ckpt = RecoveryManager::FuzzyCheckpoint(
      &log_, &pool_,
      [&] {
        return std::vector<FuzzyCheckpointImage::TxnEntry>{{2, {up}}};
      },
      std::chrono::milliseconds(1000));
  ASSERT_TRUE(ckpt.ok());
  auto dropped = log_.TruncatePrefix();
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(*dropped, 0u);  // the pre-update history did go away
  // The watermark proves the op record survived the truncation.
  EXPECT_LE(log_.checkpoint_min_recovery_lsn(), up);
  EXPECT_EQ(log_.ReadAll().front().lsn, up);
  Crash();
  EXPECT_EQ(Value(10), "v0");  // undone from the retained record
}

// A hot page — re-dirtied while the checkpoint forces the WAL for its
// write-back pass — must still go out with the checkpoint. Left dirty,
// its old rec_lsn would pin min_recovery_lsn (and so WAL truncation)
// until the next checkpoint, letting the in-memory log grow to twice
// the checkpoint trigger.
TEST(FuzzyCheckpointTest, PageRedirtiedDuringTheForceIsWrittenBack) {
  const std::string path = ::testing::TempDir() + "/asset_ckpt_hot_page.wal";
  std::remove(path.c_str());
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());  // a device, so fsyncs run
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 16, &log);
  ObjectStore store(&pool);
  ASSERT_TRUE(store.Open().ok());
  auto put = [&](const std::string& v) {
    LogManager::ApplyGuard applying(&log);
    LogRecord r;
    r.type = LogRecordType::kUpdate;
    r.tid = 1;
    r.oid = 10;
    r.after = Bytes(v);
    Lsn lsn = log.Append(std::move(r));
    EXPECT_TRUE(store.ApplyPut(10, Bytes(v)).ok());
    return lsn;
  };
  put("init");
  ASSERT_TRUE(pool.FlushAll().ok());  // start from clean pages
  const Lsn first = put("v0");  // dirties the page with rec_lsn == first
  bool redirtied = false;
  // The log is the only file here, so every fsync is a WAL force.
  SysHooks hooks;
  hooks.fsync = [&](int fd) {
    if (!redirtied) {
      redirtied = true;
      put("v1");  // the page turns hot during the checkpoint's WAL force
    }
    return ::fsync(fd);
  };
  Result<Lsn> ckpt = Status::Internal("checkpoint not run");
  {
    ScopedSysHooks guard(&hooks);
    ckpt = RecoveryManager::FuzzyCheckpoint(&log, &pool, nullptr,
                                            std::chrono::milliseconds(1000));
  }
  ASSERT_TRUE(ckpt.ok());
  EXPECT_TRUE(redirtied);
  EXPECT_TRUE(pool.DirtyPageTable().empty());
  EXPECT_GT(log.checkpoint_min_recovery_lsn(), first);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asset
