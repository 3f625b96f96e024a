// Semantic increment operations (the paper's §5 future work):
// commutative adds under increment locks — compatible with each other,
// conflicting with readers/writers, logically undone, delegation-aware,
// and crash-safe via lsn-stamped delta replay.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "kernel_fixture.h"
#include "models/atomic.h"

namespace asset {
namespace {

using namespace std::chrono_literals;

class IncrementTest : public KernelFixture {
 protected:
  ObjectId MakeCounter(int64_t initial) {
    ObjectId oid = kNullObjectId;
    Tid t = tm_->Initiate([&] {
      oid = tm_->CreateCounter(TransactionManager::Self(), initial).value();
    });
    EXPECT_TRUE(tm_->Begin(t));
    EXPECT_TRUE(tm_->Commit(t));
    return oid;
  }

  int64_t Value(ObjectId oid) {
    int64_t v = INT64_MIN;
    Tid t = tm_->Initiate([&] {
      v = tm_->ReadCounter(TransactionManager::Self(), oid).value();
    });
    EXPECT_TRUE(tm_->Begin(t));
    EXPECT_TRUE(tm_->Commit(t));
    return v;
  }
};

TEST_F(IncrementTest, CreateAndReadRoundTrip) {
  ObjectId c = MakeCounter(42);
  EXPECT_EQ(Value(c), 42);
}

TEST_F(IncrementTest, IncrementCommits) {
  ObjectId c = MakeCounter(10);
  Tid t = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 5).ok());
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, -2).ok());
  });
  tm_->Begin(t);
  ASSERT_TRUE(tm_->Commit(t));
  EXPECT_EQ(Value(c), 13);
  EXPECT_GE(tm_->stats().increments.load(), 2u);
}

TEST_F(IncrementTest, AbortUndoesOwnDeltasOnly) {
  // The escrow property: t1's abort subtracts t1's deltas without
  // clobbering t2's concurrent committed addition — before-image undo
  // could not do this.
  ObjectId c = MakeCounter(100);
  std::atomic<bool> t1_added{false}, t1_may_finish{false};
  Tid t1 = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 5).ok());
    t1_added = true;
    while (!t1_may_finish) std::this_thread::sleep_for(1ms);
  });
  tm_->Begin(t1);
  while (!t1_added) std::this_thread::sleep_for(1ms);
  // t2 increments concurrently (no permit needed!) and commits.
  Tid t2 = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 3).ok());
  });
  tm_->Begin(t2);
  ASSERT_TRUE(tm_->Commit(t2));
  // Now t1 aborts: only its +5 must vanish.
  t1_may_finish = true;
  ASSERT_EQ(tm_->Wait(t1), 1);
  ASSERT_TRUE(tm_->Abort(t1));
  EXPECT_EQ(Value(c), 103);
}

TEST_F(IncrementTest, ConcurrentIncrementersDoNotBlock) {
  ObjectId c = MakeCounter(0);
  std::atomic<int> holding{0}, peak{0};
  std::vector<Tid> tids;
  for (int i = 0; i < 4; ++i) {
    Tid t = tm_->Initiate([&] {
      ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 1).ok());
      int now = holding.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(40ms);  // all four inside concurrently
      holding.fetch_sub(1);
    });
    tm_->Begin(t);
    tids.push_back(t);
  }
  for (Tid t : tids) EXPECT_TRUE(tm_->Commit(t));
  EXPECT_GE(peak.load(), 3);  // increment locks really overlapped
  EXPECT_EQ(Value(c), 4);
}

TEST_F(IncrementTest, ReaderBlocksIncrementer) {
  ObjectId c = MakeCounter(0);
  std::atomic<bool> reading{false}, release{false};
  Tid reader = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->ReadCounter(TransactionManager::Self(), c).ok());
    reading = true;
    while (!release) std::this_thread::sleep_for(1ms);
  });
  tm_->Begin(reader);
  while (!reading) std::this_thread::sleep_for(1ms);
  std::atomic<bool> incremented{false};
  Tid adder = tm_->Initiate([&] {
    incremented = tm_->Increment(TransactionManager::Self(), c, 1).ok();
  });
  tm_->Begin(adder);
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(incremented.load());  // read lock vs increment lock
  release = true;
  EXPECT_TRUE(tm_->Commit(reader));
  EXPECT_TRUE(tm_->Commit(adder));
  EXPECT_TRUE(incremented.load());
}

TEST_F(IncrementTest, IncrementerBlocksWriter) {
  ObjectId c = MakeCounter(0);
  std::atomic<bool> added{false}, release{false};
  Tid adder = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 1).ok());
    added = true;
    while (!release) std::this_thread::sleep_for(1ms);
  });
  tm_->Begin(adder);
  while (!added) std::this_thread::sleep_for(1ms);
  std::atomic<bool> wrote{false};
  Tid writer = tm_->Initiate([&] {
    wrote = tm_->Write(TransactionManager::Self(), c,
                       ObjectStore::EncodeCounter(kNullLsn, 99))
                .ok();
  });
  tm_->Begin(writer);
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(wrote.load());
  release = true;
  EXPECT_TRUE(tm_->Commit(adder));
  EXPECT_TRUE(tm_->Commit(writer));
}

TEST_F(IncrementTest, ReadThenIncrementUpgradesToWrite) {
  ObjectId c = MakeCounter(7);
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    EXPECT_EQ(tm_->ReadCounter(self, c).value(), 7);
    ASSERT_TRUE(tm_->Increment(self, c, 3).ok());
    // Still readable by the same transaction (joined mode covers both).
    EXPECT_EQ(tm_->ReadCounter(self, c).value(), 10);
  });
  tm_->Begin(t);
  ASSERT_TRUE(tm_->Commit(t));
  EXPECT_EQ(Value(c), 10);
}

TEST_F(IncrementTest, IncrementOnNonCounterFails) {
  ObjectId oid = MakeObject("not a counter");
  Tid t = tm_->Initiate([&] {
    EXPECT_EQ(tm_->Increment(TransactionManager::Self(), oid, 1).code(),
              StatusCode::kInvalidArgument);
  });
  tm_->Begin(t);
  EXPECT_TRUE(tm_->Commit(t));
  EXPECT_EQ(ReadCommitted(oid), "not a counter");
}

TEST_F(IncrementTest, ReadCounterOnNonCounterFails) {
  ObjectId oid = MakeObject("bytes");
  Tid t = tm_->Initiate([&] {
    EXPECT_EQ(
        tm_->ReadCounter(TransactionManager::Self(), oid).status().code(),
        StatusCode::kInvalidArgument);
  });
  tm_->Begin(t);
  EXPECT_TRUE(tm_->Commit(t));
}

TEST_F(IncrementTest, DelegatedIncrementsFollowResponsibility) {
  ObjectId c = MakeCounter(0);
  Tid worker = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->Increment(TransactionManager::Self(), c, 10).ok());
  });
  tm_->Begin(worker);
  ASSERT_EQ(tm_->Wait(worker), 1);
  Tid owner = tm_->Initiate([] {});
  ASSERT_TRUE(tm_->Delegate(worker, owner).ok());
  EXPECT_TRUE(tm_->Commit(worker));  // nothing left
  EXPECT_TRUE(tm_->Abort(owner));    // subtracts the delegated +10
  EXPECT_EQ(Value(c), 0);
}

struct IncrementSweep {
  int threads;
  int adds_per_thread;
  double abort_probability;
  uint64_t seed;
};

/// Names each case by its fields (a struct parameter would otherwise be
/// printed as raw bytes, padding included).
std::string IncrementSweepName(
    const ::testing::TestParamInfo<IncrementSweep>& info) {
  const IncrementSweep& c = info.param;
  const int abort_pct = static_cast<int>(c.abort_probability * 100 + 0.5);
  return "t" + std::to_string(c.threads) + "_adds" +
         std::to_string(c.adds_per_thread) + "_abort" +
         std::to_string(abort_pct) + "pct_seed" + std::to_string(c.seed);
}

class IncrementProperty : public ::testing::TestWithParam<IncrementSweep> {};

TEST_P(IncrementProperty, FinalValueIsSumOfCommittedDeltas) {
  const auto& c = GetParam();
  auto db = Database::Open().value();
  ObjectId counter = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    counter = db->CreateCounter(0).value();
  });
  std::atomic<int64_t> committed_sum{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < c.threads; ++w) {
    threads.emplace_back([&, w] {
      Random rng(c.seed * 131 + w);
      for (int i = 0; i < c.adds_per_thread; ++i) {
        int64_t delta = static_cast<int64_t>(rng.Range(1, 9));
        bool abandon = rng.Bernoulli(c.abort_probability);
        Tid t = KernelOf(*db).InitiateFn([&, delta, abandon] {
          Tid self = TransactionManager::Self();
          if (!db->Add(counter, delta, self).ok()) return;
          if (abandon) KernelOf(*db).Abort(self);
        });
        KernelOf(*db).Begin(t);
        if (KernelOf(*db).Commit(t)) {
          committed_sum.fetch_add(delta);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(counter).value(), committed_sum.load());
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementProperty,
    ::testing::Values(IncrementSweep{2, 25, 0.0, 1},
                      IncrementSweep{4, 25, 0.0, 2},
                      IncrementSweep{4, 25, 0.3, 3},
                      IncrementSweep{8, 15, 0.2, 4},
                      IncrementSweep{8, 15, 0.8, 5}),
    IncrementSweepName);

// --- Crash recovery of increments -----------------------------------------

TEST_F(IncrementTest, RecoveryReplaysCommittedIncrements) {
  auto db = Database::Open().value();
  ObjectId c = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { c = db->CreateCounter(5).value(); });
  models::RunAtomic(KernelOf(*db), [&] { ASSERT_TRUE(db->Add(c, 7).ok()); });
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(c).value(), 12);
  });
}

TEST_F(IncrementTest, RecoveryUndoesLoserIncrements) {
  auto db = Database::Open().value();
  ObjectId c = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { c = db->CreateCounter(5).value(); });
  // Committed +7, then an in-flight +100 that only reached the log.
  models::RunAtomic(KernelOf(*db), [&] { ASSERT_TRUE(db->Add(c, 7).ok()); });
  Tid loser = KernelOf(*db).InitiateFn([&] {
    ASSERT_TRUE(db->Add(c, 100).ok());
  });
  KernelOf(*db).Begin(loser);
  ASSERT_EQ(KernelOf(*db).Wait(loser), 1);
  LogOf(*db).Flush();
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(c).value(), 12);
  });
}

TEST_F(IncrementTest, RecoveryIsIdempotentDespiteDeltas) {
  // The lsn stamp makes delta replay idempotent even when the counter
  // page was flushed mid-sequence.
  auto db = Database::Open().value();
  ObjectId c = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { c = db->CreateCounter(0).value(); });
  for (int i = 0; i < 5; ++i) {
    models::RunAtomic(KernelOf(*db), [&] { ASSERT_TRUE(db->Add(c, 10).ok()); });
  }
  ASSERT_TRUE(PoolOf(*db).FlushAll().ok());  // deltas already on disk
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(c).value(), 50);  // not 100
  });
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(c).value(), 50);
  });
}

}  // namespace
}  // namespace asset
