// Tests for the write-ahead log: record encode/decode, durability
// boundary, crash simulation, checkpoint tracking, torn-tail handling,
// and leader-follower group commit (fsync batching, flush-error
// surfacing, crash mid-group-commit).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/sys_hooks.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "storage/wal.h"

namespace asset {
namespace {

LogRecord UpdateRec(Tid tid, ObjectId oid, std::string before,
                    std::string after) {
  LogRecord r;
  r.type = LogRecordType::kUpdate;
  r.tid = tid;
  r.oid = oid;
  r.before.assign(before.begin(), before.end());
  r.after.assign(after.begin(), after.end());
  return r;
}

// A fuzzy checkpoint cut at `begin` with nothing active and no dirty
// page: its watermark is begin + 1, the checkpoint record's own lsn when
// it is the next append.
LogRecord CheckpointRec(Lsn begin) {
  FuzzyCheckpointImage image;
  image.begin_lsn = begin;
  image.min_recovery_lsn = begin + 1;
  LogRecord r;
  r.type = LogRecordType::kFuzzyCheckpoint;
  r.after = image.Encode();
  return r;
}

// Fails every fsync with EIO, as a dying disk would.
SysHooks FailingFsync() {
  SysHooks hooks;
  hooks.fsync = [](int) {
    errno = EIO;
    return -1;
  };
  return hooks;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord r = UpdateRec(3, 14, "old", "new");
  r.lsn = 9;
  r.undo_of = 4;
  r.other_tid = 5;
  r.oid_set = {1, 2, 3};
  std::vector<uint8_t> buf;
  r.EncodeTo(&buf);
  size_t off = 0;
  auto back = LogRecord::DecodeFrom(buf, &off);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(back->lsn, 9u);
  EXPECT_EQ(back->type, LogRecordType::kUpdate);
  EXPECT_EQ(back->tid, 3u);
  EXPECT_EQ(back->other_tid, 5u);
  EXPECT_EQ(back->oid, 14u);
  EXPECT_EQ(back->undo_of, 4u);
  EXPECT_EQ(back->before, (std::vector<uint8_t>{'o', 'l', 'd'}));
  EXPECT_EQ(back->after, (std::vector<uint8_t>{'n', 'e', 'w'}));
  EXPECT_EQ(back->oid_set, (std::vector<ObjectId>{1, 2, 3}));
}

TEST(LogRecordTest, DecodeEmptyIsCleanEnd) {
  std::vector<uint8_t> empty;
  size_t off = 0;
  EXPECT_TRUE(LogRecord::DecodeFrom(empty, &off).status().IsNotFound());
}

TEST(LogRecordTest, DecodeTornFrameIsCorruption) {
  LogRecord r = UpdateRec(1, 2, "abc", "def");
  std::vector<uint8_t> buf;
  r.EncodeTo(&buf);
  buf.resize(buf.size() - 2);  // torn tail
  size_t off = 0;
  EXPECT_EQ(LogRecord::DecodeFrom(buf, &off).status().code(),
            StatusCode::kCorruption);
}

TEST(LogRecordTest, DecodeBitflipIsCorruption) {
  LogRecord r = UpdateRec(1, 2, "abc", "def");
  std::vector<uint8_t> buf;
  r.EncodeTo(&buf);
  buf[buf.size() / 2] ^= 0x40;
  size_t off = 0;
  EXPECT_EQ(LogRecord::DecodeFrom(buf, &off).status().code(),
            StatusCode::kCorruption);
}

// Type 9 was the quiescent checkpoint; a well-framed record of that type
// is not a record any more.
TEST(LogRecordTest, RetiredTypeNineIsCorruption) {
  LogRecord r;
  r.type = static_cast<LogRecordType>(9);
  std::vector<uint8_t> buf;
  r.EncodeTo(&buf);
  size_t off = 0;
  EXPECT_EQ(LogRecord::DecodeFrom(buf, &off).status().code(),
            StatusCode::kCorruption);
}

TEST(LogManagerTest, AppendAssignsDenseLsns) {
  LogManager log;
  EXPECT_EQ(log.Append(UpdateRec(1, 1, "", "a")), 1u);
  EXPECT_EQ(log.Append(UpdateRec(1, 1, "a", "b")), 2u);
  EXPECT_EQ(log.last_lsn(), 2u);
  EXPECT_EQ(log.At(2).after, (std::vector<uint8_t>{'b'}));
}

TEST(LogManagerTest, FlushAdvancesDurableBoundary) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(UpdateRec(1, 1, "a", "b"));
  EXPECT_EQ(log.durable_lsn(), 0u);
  ASSERT_TRUE(log.Flush(1).ok());
  EXPECT_EQ(log.durable_lsn(), 1u);
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(log.durable_lsn(), 2u);
  EXPECT_FALSE(log.Flush(99).ok());
}

TEST(LogManagerTest, SimulateCrashDropsNonDurableTail) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Flush();
  log.Append(UpdateRec(1, 1, "a", "b"));
  log.Append(UpdateRec(1, 1, "b", "c"));
  log.SimulateCrash();
  EXPECT_EQ(log.last_lsn(), 1u);
  EXPECT_EQ(log.ReadAll().size(), 1u);
}

TEST(LogManagerTest, ReadDurableExcludesTail) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Flush();
  log.Append(UpdateRec(1, 1, "a", "b"));
  EXPECT_EQ(log.ReadDurable().size(), 1u);
  EXPECT_EQ(log.ReadAll().size(), 2u);
}

TEST(LogManagerTest, CheckpointLsnTracksDurableCheckpoints) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(CheckpointRec(1));
  EXPECT_EQ(log.last_checkpoint_lsn(), 0u);  // not durable yet
  log.Flush();
  EXPECT_EQ(log.last_checkpoint_lsn(), 2u);
}

TEST(LogManagerTest, SerializeDeserializeDurable) {
  LogManager log;
  for (int i = 0; i < 10; ++i) {
    log.Append(UpdateRec(i, i * 10, "b" + std::to_string(i),
                         "a" + std::to_string(i)));
  }
  log.Flush(7);
  auto bytes = log.SerializeDurable();
  auto records = LogManager::Deserialize(bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
    EXPECT_EQ((*records)[i].oid, i * 10);
  }
}

TEST(LogManagerTest, DeserializeRejectsCorruptStream) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "x", "y"));
  log.Flush();
  auto bytes = log.SerializeDurable();
  bytes[bytes.size() / 2] ^= 1;
  EXPECT_FALSE(LogManager::Deserialize(bytes).ok());
}

TEST(LogManagerTest, ConcurrentAppendsKeepDenseLsns) {
  LogManager log;
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPer; ++i) {
        log.Append(UpdateRec(1, 1, "", "x"));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.last_lsn(), static_cast<Lsn>(kThreads * kPer));
  auto all = log.ReadAll();
  for (size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].lsn, i + 1);
}

TEST(LogFileTest, AttachLoadsPersistedRecords) {
  std::string path = ::testing::TempDir() + "/asset_wal_attach.wal";
  std::remove(path.c_str());
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    log.Append(UpdateRec(1, 5, "a", "b"));
    log.Append(UpdateRec(1, 5, "b", "c"));
    ASSERT_TRUE(log.Flush().ok());
    log.Append(UpdateRec(1, 5, "c", "d"));  // never flushed
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    EXPECT_EQ(log.last_lsn(), 2u);  // the unflushed tail died
    EXPECT_EQ(log.durable_lsn(), 2u);
    EXPECT_EQ(log.At(2).after, (std::vector<uint8_t>{'c'}));
    // Appending continues where the previous process stopped.
    EXPECT_EQ(log.Append(UpdateRec(2, 5, "c", "e")), 3u);
    ASSERT_TRUE(log.Flush().ok());
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    EXPECT_EQ(log.last_lsn(), 3u);
  }
  std::remove(path.c_str());
}

TEST(LogFileTest, TornTailIsTruncatedOnAttach) {
  std::string path = ::testing::TempDir() + "/asset_wal_torn.wal";
  std::remove(path.c_str());
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    log.Append(UpdateRec(1, 5, "a", "b"));
    log.Append(UpdateRec(1, 5, "b", "c"));
    ASSERT_TRUE(log.Flush().ok());
  }
  // Tear the file mid-record, as a crash during pwrite would.
  {
    FILE* f = fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    ASSERT_EQ(ftruncate(fileno(f), size - 3), 0);
    fclose(f);
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  EXPECT_EQ(log.last_lsn(), 1u);  // only the first record survived
  EXPECT_EQ(log.At(1).after, (std::vector<uint8_t>{'b'}));
  std::remove(path.c_str());
}

TEST(LogFileTest, AttachAfterAppendIsRejected) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "x"));
  EXPECT_TRUE(log.AttachFile("/tmp/whatever.wal").IsIllegalState());
}

TEST(LogManagerTest, RequestFlushAdvancesDurableAsynchronously) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  Lsn lsn = log.Append(UpdateRec(1, 1, "a", "b"));
  log.RequestFlush(lsn);  // nudge only — no wait
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (log.durable_lsn() < lsn &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log.durable_lsn(), lsn);
}

TEST(LogManagerTest, SimulateCrashNeverStrandsDurabilityWaiters) {
  // A crash can land between a waiter publishing its target and a
  // leader flushing it; the truncation then discards the waiter's
  // lsn, which can never become durable. The waiter must wake with an
  // error, not sleep forever.
  for (int round = 0; round < 50; ++round) {
    LogManager log;
    log.Append(UpdateRec(1, 1, "", "a"));
    ASSERT_TRUE(log.Flush().ok());
    Lsn tail = log.Append(UpdateRec(1, 1, "a", "b"));
    Status got;
    std::thread waiter([&] { got = log.Flush(tail); });
    log.SimulateCrash();
    waiter.join();
    if (got.ok()) {
      // The waiter won the race: the record landed before the crash.
      EXPECT_EQ(log.durable_lsn(), tail);
    } else {
      // IllegalState when the crash discarded the target mid-wait;
      // InvalidArgument when the truncation happened before the waiter
      // even entered Flush (the target is now beyond the end of the
      // log). Both are prompt errors — the point is no eternal sleep.
      EXPECT_TRUE(got.IsIllegalState() ||
                  got.code() == StatusCode::kInvalidArgument)
          << got.ToString();
      EXPECT_LT(log.last_lsn(), tail);
    }
  }
}

TEST(LogManagerTest, WaitDurableHonorsTheExactBoundary) {
  LogManager log;
  Lsn l1 = log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(UpdateRec(1, 1, "a", "b"));
  ASSERT_TRUE(log.WaitDurable(l1).ok());
  // Exactly l1: the tail beyond the requested boundary stays volatile.
  EXPECT_EQ(log.durable_lsn(), l1);
  EXPECT_FALSE(log.WaitDurable(99).ok());  // beyond the end of the log
}

TEST(LogFileTest, FlushErrorSurfacesToWaitersAndSticks) {
  std::string path = ::testing::TempDir() + "/asset_wal_ioerr.wal";
  std::remove(path.c_str());
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  Lsn lsn = log.Append(UpdateRec(1, 1, "a", "b"));
  const SysHooks failing = FailingFsync();
  ScopedSysHooks guard(&failing);
  Status s = log.Flush(lsn);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(log.durable_lsn(), 0u);  // the boundary must not advance
  // The failure is sticky: every later durability wait reports it too.
  EXPECT_EQ(log.Flush().code(), StatusCode::kIOError);
  // A crash keeps only the durable prefix — nothing here.
  log.SimulateCrash();
  EXPECT_EQ(log.last_lsn(), 0u);
  std::remove(path.c_str());
}

TEST(LogFileTest, RequestFlushSurfacesTheStickyError) {
  std::string path = ::testing::TempDir() + "/asset_wal_reqerr.wal";
  std::remove(path.c_str());
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  Lsn ok_lsn = log.Append(UpdateRec(1, 1, "", "a"));
  ASSERT_TRUE(log.Flush(ok_lsn).ok());
  Lsn lost = log.Append(UpdateRec(1, 1, "a", "b"));
  const SysHooks failing = FailingFsync();
  ScopedSysHooks guard(&failing);
  EXPECT_EQ(log.Flush(lost).code(), StatusCode::kIOError);
  // The no-wait nudge reports the same sticky failure: a relaxed-mode
  // commit ack must not read as OK when nothing can ever become durable
  // again.
  EXPECT_EQ(log.RequestFlush(lost).code(), StatusCode::kIOError);
  Lsn more = log.Append(UpdateRec(1, 1, "b", "c"));
  EXPECT_EQ(log.RequestFlush(more).code(), StatusCode::kIOError);
  // An already-durable target is still an honest OK.
  EXPECT_TRUE(log.RequestFlush(ok_lsn).ok());
  std::remove(path.c_str());
}

// With no flush in progress the caller leads its own: a lone caller is
// synchronous, paying the pwrite+fsync on its own thread.
TEST(LogFileTest, LoneFlusherFsyncsOnTheCallingThread) {
  std::string path = ::testing::TempDir() + "/asset_wal_lone.wal";
  std::remove(path.c_str());
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    std::set<std::thread::id> fsync_threads;
    SysHooks hooks;
    hooks.fsync = [&](int fd) {
      fsync_threads.insert(std::this_thread::get_id());
      return ::fsync(fd);
    };
    ScopedSysHooks guard(&hooks);
    log.Append(UpdateRec(1, 5, "a", "b"));
    Lsn lsn = log.Append(UpdateRec(1, 5, "b", "c"));
    ASSERT_TRUE(log.Flush(lsn).ok());
    EXPECT_EQ(fsync_threads,
              std::set<std::thread::id>{std::this_thread::get_id()});
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  EXPECT_EQ(log.durable_lsn(), 2u);
  EXPECT_EQ(log.At(2).after, (std::vector<uint8_t>{'c'}));
  std::remove(path.c_str());
}

TEST(LogFileTest, CheckpointLsnRestoredFromFile) {
  std::string path = ::testing::TempDir() + "/asset_wal_cp.wal";
  std::remove(path.c_str());
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    log.Append(UpdateRec(1, 1, "", "x"));
    log.Append(CheckpointRec(1));
    ASSERT_TRUE(log.Flush().ok());
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  EXPECT_EQ(log.last_checkpoint_lsn(), 2u);
  std::remove(path.c_str());
}

// --- Durability-pipeline tests through the full database stack ----------

// A crash can land between two group commits: the first group's commit
// records made it to the durable prefix, the second group's did not.
// Recovery must commit exactly the durable groups. force_log_at_commit
// is off so this test controls the durable boundary by hand.
TEST(WalPipelineTest, CrashMidGroupCommitRecoversExactlyTheDurableGroups) {
  Database::Options opts;
  opts.txn.force_log_at_commit = false;
  auto open = Database::Open(opts);
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);

  ObjectId obj[4];
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    for (ObjectId& o : obj) {
      auto created = txn->Create<int>(0);
      ASSERT_TRUE(created.ok());
      o = *created;
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  ASSERT_TRUE(db->SyncWal().ok());  // the baseline must survive the crash

  TransactionManager& tm = KernelOf(*db);
  Database* dbp = db.get();
  auto commit_pair_group = [&](ObjectId a, ObjectId b) {
    Tid t1 = tm.Initiate([dbp, a] { (void)dbp->Put<int>(a, 1); });
    Tid t2 = tm.Initiate([dbp, b] { (void)dbp->Put<int>(b, 1); });
    EXPECT_TRUE(tm.FormDependency(DependencyType::kGroupCommit, t1, t2).ok());
    EXPECT_TRUE(tm.Begin(t1));
    EXPECT_TRUE(tm.Begin(t2));
    EXPECT_TRUE(tm.Commit(t1));  // commits the whole group
  };

  commit_pair_group(obj[0], obj[1]);
  Lsn first_group_end = LogOf(*db).last_lsn();
  commit_pair_group(obj[2], obj[3]);

  // Only the first group's records reach the durable prefix; the
  // second group's commit records die with the crash.
  ASSERT_TRUE(LogOf(*db).Flush(first_group_end).ok());
  ASSERT_TRUE(db->CrashAndRecover().ok());

  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(*txn->Get<int>(obj[0]), 1);  // durable group: committed
  EXPECT_EQ(*txn->Get<int>(obj[1]), 1);
  EXPECT_EQ(*txn->Get<int>(obj[2]), 0);  // lost group: rolled back
  EXPECT_EQ(*txn->Get<int>(obj[3]), 0);
  ASSERT_TRUE(txn->Commit().ok());
}

// N concurrent strict-durability committers must produce fewer than N
// fsyncs: committers arriving while a leader fsyncs follow it, and one
// of them leads the next batch for all of them.
TEST(WalPipelineTest, ConcurrentCommittersBatchOntoFewerFsyncs) {
  std::string path = ::testing::TempDir() + "/asset_wal_batch_db.data";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  Database::Options opts;
  opts.path = path;  // file-backed: fsyncs are real
  auto open = Database::Open(opts);
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);

  auto before = KernelOf(*db).stats().snapshot();
  constexpr int kThreads = 8, kPer = 25;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &committed] {
      for (int i = 0; i < kPer; ++i) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(txn->Create<int>(i).ok());
        if (txn->Commit().ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  auto after = KernelOf(*db).stats().snapshot();

  const uint64_t commits = after.txns_committed - before.txns_committed;
  const uint64_t fsyncs = after.wal_fsyncs - before.wal_fsyncs;
  EXPECT_EQ(committed.load(), kThreads * kPer);
  EXPECT_EQ(commits, static_cast<uint64_t>(kThreads * kPer));
  ASSERT_GT(fsyncs, 0u);
  // The batching win: strictly fewer fsyncs than commits.
  EXPECT_LT(fsyncs, commits);
  // Every commit was acked durable (strict policy, default).
  EXPECT_GE(LogOf(*db).durable_lsn(), static_cast<Lsn>(kThreads * kPer));

  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// No fsync runs under the kernel mutex: while the fsync hook holds a
// strict commit's flush open, another thread still runs a whole
// transaction (Begin, Read, Abort) through the kernel.
TEST(WalPipelineTest, KernelRunsWhileAFsyncIsHeldOpen) {
  std::string path = ::testing::TempDir() + "/asset_wal_open_fsync.data";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  Database::Options opts;
  opts.path = path;
  auto open = Database::Open(opts);
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);
  ObjectId oid;
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto created = txn->Create<int>(7);
    ASSERT_TRUE(created.ok());
    oid = *created;
    ASSERT_TRUE(txn->Commit().ok());
  }

  std::mutex mu;
  std::condition_variable cv;
  bool in_fsync = false, released = false, held_too_long = false;
  // The only fsync in this window is the commit's WAL flush (no
  // checkpoint runs), so the hook need not filter on the fd.
  SysHooks hooks;
  hooks.fsync = [&](int fd) {
    {
      std::unique_lock<std::mutex> lk(mu);
      if (!in_fsync) {  // hold only the first fsync
        in_fsync = true;
        cv.notify_all();
        held_too_long = !cv.wait_for(lk, std::chrono::seconds(10),
                                     [&] { return released; });
      }
    }
    return ::fsync(fd);
  };
  auto guard = std::make_unique<ScopedSysHooks>(&hooks);
  Status commit_status;
  std::thread committer([&] {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Create<int>(8).ok());
    commit_status = txn->Commit();  // leads the flush the hook holds
  });
  bool entered = false;
  {
    std::unique_lock<std::mutex> lk(mu);
    entered =
        cv.wait_for(lk, std::chrono::seconds(10), [&] { return in_fsync; });
  }
  // No ASSERT until the committer is joined: its thread must not outlive
  // this frame.
  if (entered) {
    auto txn = db->Begin();
    EXPECT_TRUE(txn.ok());
    if (txn.ok()) {
      EXPECT_EQ(*txn->Get<int>(oid), 7);
      EXPECT_TRUE(txn->Abort().ok());
    }
  }
  {
    std::lock_guard<std::mutex> g(mu);
    released = true;
  }
  cv.notify_all();
  committer.join();
  EXPECT_TRUE(entered);
  EXPECT_FALSE(held_too_long);  // the transaction did not need the hook
  EXPECT_TRUE(commit_status.ok());
  guard.reset();
  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// Relaxed commits never wait, yet no tail is left behind: a no-wait
// request either leads a flush or is taken by the running leader, so
// once the committers return every commit record is durable — with no
// strict commit and no SyncWal to push it.
TEST(WalPipelineTest, RelaxedCommitsBecomeDurableWithoutAStrictFlush) {
  std::string path = ::testing::TempDir() + "/asset_wal_relaxed.data";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  Database::Options opts;
  opts.path = path;
  opts.txn.durability = DurabilityPolicy::kRelaxed;
  auto open = Database::Open(opts);
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);

  constexpr int kThreads = 4, kPer = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db] {
      for (int i = 0; i < kPer; ++i) {
        auto txn = db->Begin();
        ASSERT_TRUE(txn.ok());
        ASSERT_TRUE(txn->Create<int>(i).ok());
        ASSERT_TRUE(txn->Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  Lsn last_commit = kNullLsn;
  int commits = 0;
  for (const LogRecord& r : LogOf(*db).ReadAll()) {
    if (r.type != LogRecordType::kCommit) continue;
    last_commit = std::max(last_commit, r.lsn);
    ++commits;
  }
  EXPECT_EQ(commits, kThreads * kPer);
  EXPECT_GE(LogOf(*db).durable_lsn(), last_commit);
  EXPECT_GT(KernelOf(*db).stats().snapshot().wal_fsyncs, 0u);
  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// A dirty page can reach the device (eviction under memory pressure,
// FlushPage, FlushAll) while the transaction that dirtied it is still
// running. Write-ahead for creates: the kCreate record must be forced
// into the durable prefix before the page image carrying the new object
// is stolen — otherwise a crash resurrects the uncommitted object with
// no durable log record to undo it.
TEST(WalPipelineTest, StolenPageNeverOutrunsTheCreateRecord) {
  auto open = Database::Open();
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);

  auto tid = KernelOf(*db).BeginSession();
  ASSERT_TRUE(tid.ok());
  auto created = KernelOf(*db).CreateObject(*tid, Database::Encode<int>(7));
  ASSERT_TRUE(created.ok());
  ObjectId oid = *created;

  // Steal every dirty page while the creator is still uncommitted. The
  // page_lsn watermark must cover the kCreate record, so this force
  // makes it durable before the page image lands.
  ASSERT_TRUE(PoolOf(*db).FlushAll().ok());
  EXPECT_TRUE(StoreOf(*db).Exists(oid));

  // Crash with the creator unterminated. The device holds the page
  // image with the object; recovery must roll the create back.
  ASSERT_TRUE(db->CrashAndRecover().ok());
  EXPECT_FALSE(StoreOf(*db).Exists(oid));
}

// Under relaxed durability the commit ack does not wait for the fsync —
// but once the WAL has a sticky I/O failure, acks must fail rather than
// report OK forever while nothing can become durable.
TEST(WalPipelineTest, RelaxedCommitAcksFailAfterTheWalGoesBad) {
  std::string path = ::testing::TempDir() + "/asset_wal_relaxed_bad.data";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  Database::Options opts;
  opts.path = path;  // file-backed: the log's fsync can fail
  opts.txn.durability = DurabilityPolicy::kRelaxed;
  auto open = Database::Open(opts);
  ASSERT_TRUE(open.ok());
  auto db = std::move(*open);

  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Create<int>(1).ok());
    ASSERT_TRUE(txn->Commit().ok());  // healthy: the no-wait ack is OK
  }
  const SysHooks failing = FailingFsync();
  auto guard = std::make_unique<ScopedSysHooks>(&failing);
  // The fault fires on the next flush that actually runs; at this point
  // everything is already durable, so push fresh records through a
  // failing flush to make the error stick. This commit's own no-wait
  // ack may be taken by a running leader and return OK before the error
  // lands, so no assertion on it.
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Create<int>(2).ok());
    (void)txn->Commit();
  }
  EXPECT_EQ(db->SyncWal().code(), StatusCode::kIOError);  // failure sticks
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn->Create<int>(3).ok());
    EXPECT_EQ(txn->Commit().code(), StatusCode::kIOError);
  }
  db.reset();
  guard.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// --- Fuzzy-checkpoint image codec and prefix truncation ------------------

TEST(FuzzyCheckpointImageTest, EncodeDecodeRoundTrip) {
  FuzzyCheckpointImage img;
  img.begin_lsn = 42;
  img.min_recovery_lsn = 7;
  img.active = {{3, {7, 9, 11}}, {5, {}}};
  img.dirty_pages = {{0, 7}, {4, kNullLsn}};
  auto back = FuzzyCheckpointImage::Decode(img.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->begin_lsn, 42u);
  EXPECT_EQ(back->min_recovery_lsn, 7u);
  ASSERT_EQ(back->active.size(), 2u);
  EXPECT_EQ(back->active[0].tid, 3u);
  EXPECT_EQ(back->active[0].ops, (std::vector<Lsn>{7, 9, 11}));
  EXPECT_EQ(back->active[1].tid, 5u);
  EXPECT_TRUE(back->active[1].ops.empty());
  EXPECT_EQ(back->dirty_pages,
            (std::vector<std::pair<PageId, Lsn>>{{0, 7}, {4, kNullLsn}}));
}

TEST(FuzzyCheckpointImageTest, DecodeTruncatedIsCorruption) {
  FuzzyCheckpointImage img;
  img.begin_lsn = 1;
  img.min_recovery_lsn = 1;
  img.active = {{3, {1}}};
  auto bytes = img.Encode();
  bytes.resize(bytes.size() - 3);
  EXPECT_EQ(FuzzyCheckpointImage::Decode(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(LogManagerTest, TruncatePrefixWithoutCheckpointIsANoOp) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  ASSERT_TRUE(log.Flush().ok());
  auto dropped = log.TruncatePrefix();
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);  // nothing provably redundant yet
  EXPECT_EQ(log.size(), 1u);
}

TEST(LogManagerTest, TruncatePrefixDropsOnlyTheDurableRedundantPrefix) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(UpdateRec(1, 1, "a", "b"));
  Lsn cp_lsn = log.Append(CheckpointRec(2));
  log.Append(UpdateRec(2, 1, "b", "c"));
  ASSERT_TRUE(log.Flush().ok());
  auto dropped = log.TruncatePrefix();
  ASSERT_TRUE(dropped.ok());
  // With nothing active the watermark is the checkpoint's own lsn: both
  // earlier updates go; the checkpoint record and the tail stay, lsns
  // intact.
  EXPECT_EQ(*dropped, 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.ReadAll().front().lsn, cp_lsn);
  EXPECT_EQ(log.At(4).after, (std::vector<uint8_t>{'c'}));
  EXPECT_EQ(log.last_lsn(), 4u);
  // Appends keep numbering densely past the truncation.
  EXPECT_EQ(log.Append(UpdateRec(2, 1, "c", "d")), 5u);
}

TEST(LogManagerTest, SimulateCrashAfterTruncationKeepsDurablePrefix) {
  LogManager log;
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(CheckpointRec(1));
  ASSERT_TRUE(log.Flush().ok());
  ASSERT_TRUE(log.TruncatePrefix().ok());
  log.Append(UpdateRec(2, 1, "a", "b"));  // volatile tail
  log.SimulateCrash();
  EXPECT_EQ(log.last_lsn(), 2u);  // tail gone, truncated prefix stable
  EXPECT_EQ(log.ReadAll().size(), 1u);
  EXPECT_EQ(log.ReadAll().front().type, LogRecordType::kFuzzyCheckpoint);
}

// File-backed: only a log with a device makes syscalls that can fail.
TEST(LogManagerTest, TruncateRefusedOnStickyIoError) {
  std::string path = ::testing::TempDir() + "/asset_wal_trunc_ioerr.wal";
  std::remove(path.c_str());
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  log.Append(UpdateRec(1, 1, "", "a"));
  log.Append(CheckpointRec(1));
  ASSERT_TRUE(log.Flush().ok());
  {
    const SysHooks failing = FailingFsync();
    ScopedSysHooks guard(&failing);
    log.Append(UpdateRec(1, 1, "a", "b"));
    ASSERT_FALSE(log.Flush().ok());
  }
  ASSERT_FALSE(log.Flush().ok());  // the error sticks
  EXPECT_EQ(log.TruncatePrefix().status().code(), StatusCode::kIllegalState);
  std::remove(path.c_str());
}

TEST(LogFileTest, TruncatedFileReattachesWithOriginalLsns) {
  std::string path = ::testing::TempDir() + "/asset_wal_trunc.wal";
  std::remove(path.c_str());
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    log.Append(UpdateRec(1, 1, "", "a"));
    log.Append(UpdateRec(1, 1, "a", "b"));
    log.Append(CheckpointRec(2));
    log.Append(UpdateRec(2, 1, "b", "c"));
    ASSERT_TRUE(log.Flush().ok());
    auto dropped = log.TruncatePrefix();
    ASSERT_TRUE(dropped.ok());
    EXPECT_EQ(*dropped, 2u);
    // The shortened log keeps working: append + flush past the rewrite.
    log.Append(UpdateRec(2, 1, "c", "d"));
    ASSERT_TRUE(log.Flush().ok());
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path).ok());
  // The dropped-prefix length is re-derived from the first frame's lsn.
  EXPECT_EQ(log.ReadAll().front().lsn, 3u);
  EXPECT_EQ(log.last_lsn(), 5u);
  EXPECT_EQ(log.last_checkpoint_lsn(), 3u);
  EXPECT_EQ(log.checkpoint_min_recovery_lsn(), 3u);
  EXPECT_EQ(log.At(5).after, (std::vector<uint8_t>{'d'}));
  std::remove(path.c_str());
}

TEST(LogManagerTest, AppendedBytesGrowsAndSurvivesTruncation) {
  LogManager log;
  uint64_t b0 = log.appended_bytes();
  log.Append(UpdateRec(1, 1, "", "aaaa"));
  uint64_t b1 = log.appended_bytes();
  EXPECT_GT(b1, b0);
  log.Append(CheckpointRec(1));
  ASSERT_TRUE(log.Flush().ok());
  uint64_t b2 = log.appended_bytes();
  ASSERT_TRUE(log.TruncatePrefix().ok());
  EXPECT_GE(log.appended_bytes(), b2);  // monotonic: a trigger baseline
}

TEST(LogManagerTest, WaitAppliedThroughDrainsApplyGuards) {
  LogManager log;
  // No guards: drains immediately.
  EXPECT_TRUE(
      log.WaitAppliedThrough(10, std::chrono::milliseconds(10)).ok());
  auto guard = std::make_unique<LogManager::ApplyGuard>(&log);
  Lsn lsn = log.Append(UpdateRec(1, 1, "", "a"));
  EXPECT_EQ(log.OldestApplying(), lsn);  // registered before the append
  // The guard holds an in-flight apply at or below the cut: times out.
  EXPECT_EQ(log.WaitAppliedThrough(lsn, std::chrono::milliseconds(20)).code(),
            StatusCode::kTimedOut);
  // A later cut is not blocked by it... once released, everything is.
  std::thread releaser([&guard] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    guard.reset();
  });
  EXPECT_TRUE(
      log.WaitAppliedThrough(lsn, std::chrono::milliseconds(2000)).ok());
  releaser.join();
  EXPECT_EQ(log.OldestApplying(), kNullLsn);
}

}  // namespace
}  // namespace asset
