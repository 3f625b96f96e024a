// Transactional B+-tree tests: CRUD, splits and merges across levels,
// range scans, structural invariants, randomized fuzz against std::map,
// transactional rollback of structure changes, and crash recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "kernel_fixture.h"
#include "models/atomic.h"
#include "ode/btree.h"

namespace asset {
namespace {

using ode::BTree;
using ode::BTreeEntry;

class BTreeTest : public KernelFixture {
 protected:
  /// Creates a committed empty tree and returns its handle.
  BTree MakeTree() {
    ObjectId header = kNullObjectId;
    Tid t = tm_->Initiate([&] {
      header =
          BTree::Create(tm_.get(), TransactionManager::Self())->header_oid();
    });
    EXPECT_TRUE(tm_->Begin(t));
    EXPECT_TRUE(tm_->Commit(t));
    return BTree::Open(tm_.get(), header);
  }

  /// Runs `fn` inside a committed transaction.
  void InTxn(std::function<void(Tid)> fn) {
    Tid t = tm_->Initiate([&] { fn(TransactionManager::Self()); });
    ASSERT_TRUE(tm_->Begin(t));
    ASSERT_TRUE(tm_->Commit(t));
  }
};

TEST_F(BTreeTest, EmptyTree) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    EXPECT_EQ(tree.Size(t).value(), 0u);
    EXPECT_EQ(tree.Height(t).value(), 1u);
    EXPECT_TRUE(tree.Search(t, 42).status().IsNotFound());
    EXPECT_TRUE(tree.Range(t, INT64_MIN, INT64_MAX)->empty());
    EXPECT_TRUE(tree.CheckInvariants(t).ok());
  });
}

TEST_F(BTreeTest, InsertAndSearch) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    EXPECT_TRUE(tree.Insert(t, 5, 500).value());
    EXPECT_TRUE(tree.Insert(t, 3, 300).value());
    EXPECT_TRUE(tree.Insert(t, 8, 800).value());
    EXPECT_EQ(tree.Search(t, 5).value(), 500u);
    EXPECT_EQ(tree.Search(t, 3).value(), 300u);
    EXPECT_EQ(tree.Search(t, 8).value(), 800u);
    EXPECT_TRUE(tree.Search(t, 4).status().IsNotFound());
    EXPECT_EQ(tree.Size(t).value(), 3u);
  });
}

TEST_F(BTreeTest, UpsertOverwrites) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    EXPECT_TRUE(tree.Insert(t, 7, 1).value());
    EXPECT_FALSE(tree.Insert(t, 7, 2).value());  // not new
    EXPECT_EQ(tree.Search(t, 7).value(), 2u);
    EXPECT_EQ(tree.Size(t).value(), 1u);
  });
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  BTree tree = MakeTree();
  constexpr int kN = 2000;  // forces height >= 3 at kMaxKeys=32
  InTxn([&](Tid t) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i) * 10).ok());
    }
    EXPECT_EQ(tree.Size(t).value(), static_cast<uint64_t>(kN));
    EXPECT_GE(tree.Height(t).value(), 3u);
    ASSERT_TRUE(tree.CheckInvariants(t).ok());
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(tree.Search(t, i).value(), static_cast<uint64_t>(i) * 10);
    }
  });
}

TEST_F(BTreeTest, ReverseAndAlternatingInsertOrders) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    for (int i = 200; i > 0; --i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
    ASSERT_TRUE(tree.CheckInvariants(t).ok());
    for (int i = 1; i <= 200; ++i) {
      ASSERT_TRUE(tree.Search(t, i).ok());
    }
  });
}

TEST_F(BTreeTest, RangeScan) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(tree.Insert(t, i * 2, static_cast<uint64_t>(i)).ok());
    }
    auto mid = tree.Range(t, 10, 20).value();
    ASSERT_EQ(mid.size(), 6u);  // 10,12,14,16,18,20
    EXPECT_EQ(mid.front(), (BTreeEntry{10, 5}));
    EXPECT_EQ(mid.back(), (BTreeEntry{20, 10}));
    EXPECT_EQ(tree.Range(t, INT64_MIN, INT64_MAX)->size(), 100u);
    EXPECT_TRUE(tree.Range(t, 11, 11)->empty());  // odd keys absent
    EXPECT_TRUE(tree.Range(t, 30, 10)->empty());  // inverted bounds
  });
}

TEST_F(BTreeTest, DeleteLeafSimple) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
    ASSERT_TRUE(tree.Delete(t, 5).ok());
    EXPECT_TRUE(tree.Search(t, 5).status().IsNotFound());
    EXPECT_EQ(tree.Size(t).value(), 9u);
    EXPECT_TRUE(tree.Delete(t, 5).IsNotFound());
    EXPECT_EQ(tree.Size(t).value(), 9u);  // failed delete changed nothing
    ASSERT_TRUE(tree.CheckInvariants(t).ok());
  });
}

TEST_F(BTreeTest, DeleteEverythingCollapsesTree) {
  BTree tree = MakeTree();
  constexpr int kN = 300;
  InTxn([&](Tid t) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
    EXPECT_GE(tree.Height(t).value(), 2u);
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(tree.Delete(t, i).ok()) << "key " << i;
      ASSERT_TRUE(tree.CheckInvariants(t).ok()) << "after deleting " << i;
    }
    EXPECT_EQ(tree.Size(t).value(), 0u);
    EXPECT_EQ(tree.Height(t).value(), 1u);  // collapsed back to one leaf
  });
}

TEST_F(BTreeTest, DeleteInReverseAndMiddleOrders) {
  BTree tree = MakeTree();
  constexpr int kN = 200;
  InTxn([&](Tid t) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
    // Delete from the middle outward — stresses borrow-left and
    // borrow-right unevenly.
    for (int d = 0; d < kN / 2; ++d) {
      ASSERT_TRUE(tree.Delete(t, kN / 2 + d).ok());
      ASSERT_TRUE(tree.Delete(t, kN / 2 - d - 1).ok());
    }
    EXPECT_EQ(tree.Size(t).value(), 0u);
    ASSERT_TRUE(tree.CheckInvariants(t).ok());
  });
}

TEST_F(BTreeTest, AbortRollsBackStructureChanges) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
  });
  // A transaction that splits nodes, then aborts: the tree must revert
  // to exactly the committed shape.
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    for (int i = 50; i < 300; ++i) {
      ASSERT_TRUE(tree.Insert(self, i, static_cast<uint64_t>(i)).ok());
    }
    tm_->Abort(self);
  });
  tm_->Begin(t);
  EXPECT_FALSE(tm_->Commit(t));
  InTxn([&](Tid check) {
    EXPECT_EQ(tree.Size(check).value(), 50u);
    EXPECT_TRUE(tree.Search(check, 49).ok());
    EXPECT_TRUE(tree.Search(check, 50).status().IsNotFound());
    EXPECT_TRUE(tree.CheckInvariants(check).ok());
  });
}

TEST_F(BTreeTest, AbortRollsBackDeletesAndMerges) {
  BTree tree = MakeTree();
  constexpr int kN = 200;
  InTxn([&](Tid t) {
    for (int i = 0; i < kN; ++i) {
      ASSERT_TRUE(tree.Insert(t, i, static_cast<uint64_t>(i)).ok());
    }
  });
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    for (int i = 0; i < kN - 5; ++i) {
      ASSERT_TRUE(tree.Delete(self, i).ok());
    }
    tm_->Abort(self);
  });
  tm_->Begin(t);
  EXPECT_FALSE(tm_->Commit(t));
  InTxn([&](Tid check) {
    EXPECT_EQ(tree.Size(check).value(), static_cast<uint64_t>(kN));
    for (int i = 0; i < kN; ++i) ASSERT_TRUE(tree.Search(check, i).ok());
    EXPECT_TRUE(tree.CheckInvariants(check).ok());
  });
}

TEST_F(BTreeTest, NegativeAndExtremeKeys) {
  BTree tree = MakeTree();
  InTxn([&](Tid t) {
    ASSERT_TRUE(tree.Insert(t, INT64_MIN, 1).ok());
    ASSERT_TRUE(tree.Insert(t, -1, 2).ok());
    ASSERT_TRUE(tree.Insert(t, 0, 3).ok());
    ASSERT_TRUE(tree.Insert(t, INT64_MAX, 4).ok());
    EXPECT_EQ(tree.Search(t, INT64_MIN).value(), 1u);
    EXPECT_EQ(tree.Search(t, INT64_MAX).value(), 4u);
    auto all = tree.Range(t, INT64_MIN, INT64_MAX).value();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].key, INT64_MIN);
    EXPECT_EQ(all[3].key, INT64_MAX);
  });
}

// Randomized fuzz: interleaved inserts/upserts/deletes mirrored into a
// std::map; full verification plus invariants at the end of each round.
struct FuzzCase {
  uint64_t seed;
  int ops;
  int key_space;
};

/// Names each case by its fields (a struct parameter would otherwise be
/// printed as raw bytes, padding included).
std::string FuzzCaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  const FuzzCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_ops" + std::to_string(c.ops) +
         "_keys" + std::to_string(c.key_space);
}

class BTreeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(BTreeFuzz, AgreesWithStdMap) {
  const auto& c = GetParam();
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 512);
  ObjectStore store(&pool);
  ASSERT_TRUE(store.Open().ok());
  LogManager log;
  TransactionManager::Options o;
  o.force_log_at_commit = false;
  TransactionManager tm(&log, &store, o);

  ObjectId header = kNullObjectId;
  Tid init = tm.InitiateFn([&] {
    header = BTree::Create(&tm, TransactionManager::Self())->header_oid();
  });
  tm.Begin(init);
  ASSERT_TRUE(tm.Commit(init));
  BTree tree = BTree::Open(&tm, header);

  Random rng(c.seed);
  std::map<int64_t, uint64_t> shadow;
  Tid t = tm.InitiateFn([&] {
    Tid self = TransactionManager::Self();
    for (int i = 0; i < c.ops; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(c.key_space));
      int action = static_cast<int>(rng.Uniform(3));
      if (action < 2) {
        uint64_t value = rng.Next();
        ASSERT_TRUE(tree.Insert(self, key, value).ok());
        shadow[key] = value;
      } else {
        Status s = tree.Delete(self, key);
        if (shadow.erase(key) > 0) {
          ASSERT_TRUE(s.ok());
        } else {
          ASSERT_TRUE(s.IsNotFound());
        }
      }
    }
    // Verification inside the same transaction.
    ASSERT_TRUE(tree.CheckInvariants(self).ok());
    ASSERT_EQ(tree.Size(self).value(), shadow.size());
    for (const auto& [k, v] : shadow) {
      ASSERT_EQ(tree.Search(self, k).value(), v);
    }
    auto scanned = tree.Range(self, INT64_MIN, INT64_MAX).value();
    ASSERT_EQ(scanned.size(), shadow.size());
    size_t i = 0;
    for (const auto& [k, v] : shadow) {
      EXPECT_EQ(scanned[i].key, k);
      EXPECT_EQ(scanned[i].value, v);
      ++i;
    }
  });
  tm.Begin(t);
  ASSERT_TRUE(tm.Commit(t));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreeFuzz,
    ::testing::Values(FuzzCase{1, 500, 100}, FuzzCase{2, 1000, 50},
                      FuzzCase{3, 1500, 2000}, FuzzCase{4, 2000, 300},
                      FuzzCase{5, 800, 10}, FuzzCase{6, 2500, 1000}),
    FuzzCaseName);

TEST_F(BTreeTest, SurvivesCrashRecovery) {
  auto db = Database::Open().value();
  ObjectId header = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    auto tree = BTree::Create(&KernelOf(*db), TransactionManager::Self());
    header = tree->header_oid();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          tree->Insert(TransactionManager::Self(), i, i * 7ull).ok());
    }
  });
  // An in-flight transaction splits nodes, then the system crashes.
  {
    BTree tree = BTree::Open(&KernelOf(*db), header);
    Tid straggler = KernelOf(*db).Initiate([&] {
      Tid self = TransactionManager::Self();
      for (int i = 100; i < 400; ++i) {
        tree.Insert(self, i, 0).value();
      }
    });
    KernelOf(*db).Begin(straggler);
    ASSERT_EQ(KernelOf(*db).Wait(straggler), 1);
    LogOf(*db).Flush();
  }
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  BTree tree = BTree::Open(&KernelOf(*db), header);
  models::RunAtomic(KernelOf(*db), [&] {
    Tid self = TransactionManager::Self();
    EXPECT_EQ(tree.Size(self).value(), 100u);
    EXPECT_TRUE(tree.CheckInvariants(self).ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(tree.Search(self, i).value(), i * 7ull);
    }
    EXPECT_TRUE(tree.Search(self, 100).status().IsNotFound());
  });
}

TEST_F(BTreeTest, ConcurrentWritersConvergeWithRetry) {
  // Two writers insert disjoint key ranges concurrently. Strict 2PL on
  // nodes makes them collide at the root; deadlock-victim retry must
  // still converge to a complete, valid tree.
  BTree tree = MakeTree();
  constexpr int kPerWriter = 60;
  std::atomic<int> committed{0};
  auto writer = [&](int base) {
    for (int i = 0; i < kPerWriter; ++i) {
      bool ok = models::RunAtomicWithRetry(
          *tm_,
          [&, i] {
            tree.Insert(TransactionManager::Self(), base + i,
                        static_cast<uint64_t>(base + i))
                .ValueOr(false);
          },
          50);
      if (ok) committed.fetch_add(1);
    }
  };
  std::thread w1([&] { writer(0); });
  std::thread w2([&] { writer(100000); });
  w1.join();
  w2.join();
  EXPECT_EQ(committed.load(), 2 * kPerWriter);
  InTxn([&](Tid t) {
    EXPECT_EQ(tree.Size(t).value(), static_cast<uint64_t>(2 * kPerWriter));
    EXPECT_TRUE(tree.CheckInvariants(t).ok());
    for (int i = 0; i < kPerWriter; ++i) {
      ASSERT_TRUE(tree.Search(t, i).ok());
      ASSERT_TRUE(tree.Search(t, 100000 + i).ok());
    }
  });
}

}  // namespace
}  // namespace asset
