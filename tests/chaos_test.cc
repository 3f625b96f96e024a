// Chaos soak: every primitive at once. Random mixtures of atomic
// transactions, sagas, nested transactions, cooperative pairs,
// delegation chains, GC groups, counters, and index updates run
// concurrently against one database, with injected aborts — then
// global invariants are checked, a crash is simulated, and the
// invariants are re-checked after recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "common/random.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "models/atomic.h"
#include "models/cooperative.h"
#include "models/nested.h"
#include "models/saga.h"
#include "ode/btree.h"

namespace asset {
namespace {

struct ChaosCase {
  int threads;
  int rounds;
  uint64_t seed;
  /// Run the kernel under DurabilityPolicy::kRelaxed: commit acks do
  /// not wait for a flush, so the crash may lose a suffix of acked
  /// commits. The post-recovery invariants weaken accordingly (prefix
  /// semantics), but conservation must still hold.
  bool relaxed = false;
  /// Fire background fuzzy checkpoints (with WAL truncation) while the
  /// mixed-model workload runs, then re-check every invariant after the
  /// crash recovers from the shortened log.
  bool checkpoints = false;
};

/// Names each case by its fields (a struct parameter would otherwise be
/// printed as raw bytes, padding included).
std::string ChaosCaseName(const ::testing::TestParamInfo<ChaosCase>& info) {
  const ChaosCase& c = info.param;
  return "t" + std::to_string(c.threads) + "_r" + std::to_string(c.rounds) +
         "_seed" + std::to_string(c.seed) + (c.relaxed ? "_relaxed" : "") +
         (c.checkpoints ? "_ckpt" : "");
}

class ChaosProperty : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosProperty, InvariantsHoldThroughChaosAndRecovery) {
  const auto& c = GetParam();
  Database::Options opts;
  opts.txn.lock.lock_timeout = std::chrono::milliseconds(2000);
  opts.txn.commit_timeout = std::chrono::milliseconds(5000);
  opts.txn.durability =
      c.relaxed ? DurabilityPolicy::kRelaxed : DurabilityPolicy::kStrict;
  if (c.checkpoints) {
    // Aggressive triggers so several checkpoints land mid-workload.
    opts.checkpoint.interval = std::chrono::milliseconds(10);
    opts.checkpoint.log_bytes_trigger = 4096;
  }
  auto db = Database::Open(opts).value();

  // World: a pool of bank accounts (total conserved), a counter of
  // committed operations (matches our own tally), and an index mapping
  // round-ids to worker ids (every committed insert present).
  constexpr int kAccounts = 6;
  constexpr int64_t kInitial = 1000;
  std::vector<ObjectId> accounts;
  ObjectId op_counter = kNullObjectId;
  ObjectId index_header = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    Tid self = TransactionManager::Self();
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(db->Create<int64_t>(kInitial).value());
    }
    op_counter = db->CreateCounter(0).value();
    index_header =
        ode::BTree::Create(&KernelOf(*db), self)->header_oid();
  });

  std::atomic<int64_t> committed_ops{0};
  std::mutex index_mu;  // serialize index writers (strict 2PL B-tree)
  std::vector<std::pair<int64_t, uint64_t>> committed_index_entries;
  std::mutex entries_mu;

  auto transfer_work = [&](Random& rng) {
    size_t from = rng.Uniform(kAccounts), to = rng.Uniform(kAccounts);
    if (from == to) return;
    int64_t amount = static_cast<int64_t>(rng.Range(1, 20));
    bool abandon = rng.Bernoulli(0.2);
    bool ok = models::RunAtomicWithRetry(
        KernelOf(*db),
        [&] {
          Tid self = TransactionManager::Self();
          ObjectId lo = std::min(accounts[from], accounts[to]);
          ObjectId hi = std::max(accounts[from], accounts[to]);
          auto vlo = db->Get<int64_t>(lo, self);
          if (!vlo.ok()) return;
          auto vhi = db->Get<int64_t>(hi, self);
          if (!vhi.ok()) return;
          int64_t dlo = accounts[from] == lo ? -amount : amount;
          if (!db->Put<int64_t>(lo, *vlo + dlo, self).ok()) return;
          if (!db->Put<int64_t>(hi, *vhi - dlo, self).ok()) return;
          if (!db->Add(op_counter, 1, self).ok()) return;
          if (abandon) KernelOf(*db).Abort(self);
        },
        10);
    if (ok) committed_ops.fetch_add(1);
  };

  auto saga_work = [&](Random& rng) {
    bool fail_late = rng.Bernoulli(0.4);
    size_t acct = rng.Uniform(kAccounts);
    models::Saga saga;
    saga.AddStep(
        [&, acct] {
          Tid self = TransactionManager::Self();
          auto v = db->Get<int64_t>(accounts[acct], self);
          if (!v.ok()) return;
          db->Put<int64_t>(accounts[acct], *v - 5, self).ok();
        },
        [&, acct] {
          Tid self = TransactionManager::Self();
          auto v = db->Get<int64_t>(accounts[acct], self);
          if (!v.ok()) return;
          db->Put<int64_t>(accounts[acct], *v + 5, self).ok();
        });
    saga.AddStep([&, acct, fail_late] {
      Tid self = TransactionManager::Self();
      if (fail_late) {
        KernelOf(*db).Abort(self);
        return;
      }
      auto v = db->Get<int64_t>(accounts[acct], self);
      if (!v.ok()) return;
      db->Put<int64_t>(accounts[acct], *v + 5, self).ok();
      db->Add(op_counter, 1, self).ok();
    });
    if (saga.Run(KernelOf(*db)).committed) committed_ops.fetch_add(1);
  };

  auto nested_work = [&](Random& rng) {
    size_t acct = rng.Uniform(kAccounts);
    bool child_fails = rng.Bernoulli(0.3);
    bool ok = models::RunAtomic(KernelOf(*db), [&] {
      Tid self = TransactionManager::Self();
      auto v = db->Get<int64_t>(accounts[acct], self);
      if (!v.ok()) return;
      if (!db->Put<int64_t>(accounts[acct], *v - 7, self).ok()) return;
      Status s = models::RunSubtransaction(
          KernelOf(*db),
          [&] {
            Tid me = TransactionManager::Self();
            if (child_fails) {
              KernelOf(*db).Abort(me);
              return;
            }
            auto w = db->Get<int64_t>(accounts[acct], me);
            if (!w.ok()) return;
            db->Put<int64_t>(accounts[acct], *w + 7, me).ok();
          },
          models::OnChildAbort::kAbortParent);
      if (s.ok()) db->Add(op_counter, 1, self).ok();
    });
    if (ok) committed_ops.fetch_add(1);
  };

  auto index_work = [&](Random& rng, int worker, int round) {
    std::lock_guard<std::mutex> serialize(index_mu);
    int64_t key = worker * 1000000 + round;
    bool abandon = rng.Bernoulli(0.2);
    bool ok = models::RunAtomicWithRetry(
        KernelOf(*db),
        [&] {
          Tid self = TransactionManager::Self();
          ode::BTree tree = ode::BTree::Open(&KernelOf(*db), index_header);
          if (!tree.Insert(self, key, static_cast<uint64_t>(worker)).ok()) {
            return;
          }
          if (abandon) KernelOf(*db).Abort(self);
        },
        10);
    if (ok) {
      std::lock_guard<std::mutex> g(entries_mu);
      committed_index_entries.emplace_back(key,
                                           static_cast<uint64_t>(worker));
    }
  };

  auto delegation_work = [&](Random& rng) {
    size_t acct = rng.Uniform(kAccounts);
    // A worker writes, delegates everything to a fresh transaction, and
    // that transaction flips a coin: commit keeps the (net-zero) write,
    // abort reverts it. Either way the total is conserved.
    Tid worker = KernelOf(*db).InitiateFn([&, acct] {
      Tid self = TransactionManager::Self();
      auto v = db->Get<int64_t>(accounts[acct], self);
      if (!v.ok()) return;
      db->Put<int64_t>(accounts[acct], *v, self).ok();  // net-zero write
    });
    KernelOf(*db).Begin(worker);
    if (KernelOf(*db).Wait(worker) != 1) {
      KernelOf(*db).Abort(worker);
      return;
    }
    Tid owner = KernelOf(*db).InitiateFn([] {});
    if (!KernelOf(*db).Delegate(worker, owner).ok()) {
      KernelOf(*db).Abort(worker);
      KernelOf(*db).Abort(owner);
      return;
    }
    KernelOf(*db).Commit(worker);
    KernelOf(*db).Begin(owner);
    if (rng.Bernoulli(0.5)) {
      KernelOf(*db).Commit(owner);
    } else {
      KernelOf(*db).Abort(owner);
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < c.threads; ++w) {
    threads.emplace_back([&, w] {
      Random rng(c.seed * 977 + w);
      for (int r = 0; r < c.rounds; ++r) {
        switch (rng.Uniform(5)) {
          case 0:
            transfer_work(rng);
            break;
          case 1:
            saga_work(rng);
            break;
          case 2:
            nested_work(rng);
            break;
          case 3:
            index_work(rng, w, r);
            break;
          case 4:
            delegation_work(rng);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  if (c.checkpoints) {
    // The background checkpointer really ran against the live workload.
    EXPECT_GE(KernelOf(*db).stats().checkpoints.load(), 1u);
  }

  auto check_world = [&](const char* when) {
    models::RunAtomic(KernelOf(*db), [&] {
      Tid self = TransactionManager::Self();
      int64_t total = 0;
      for (ObjectId a : accounts) {
        total += db->Get<int64_t>(a, self).value();
      }
      EXPECT_EQ(total, kAccounts * kInitial) << when;
      EXPECT_EQ(db->GetCounter(op_counter, self).value(),
                committed_ops.load())
          << when;
      ode::BTree tree = ode::BTree::Open(&KernelOf(*db), index_header);
      EXPECT_TRUE(tree.CheckInvariants(self).ok()) << when;
      EXPECT_EQ(tree.Size(self).value(), committed_index_entries.size())
          << when;
      for (const auto& [key, value] : committed_index_entries) {
        ASSERT_EQ(tree.Search(self, key).value(), value) << when;
      }
    });
  };
  // Prefix-consistent invariants for a relaxed-durability crash: the
  // recovered state is SOME prefix of the acked commits. Conservation
  // and structural invariants must hold regardless; the tallies may
  // lag what was acked, never exceed it, and the index may hold only
  // entries that were actually acked.
  auto check_world_prefix = [&](const char* when) {
    models::RunAtomic(KernelOf(*db), [&] {
      Tid self = TransactionManager::Self();
      int64_t total = 0;
      for (ObjectId a : accounts) {
        total += db->Get<int64_t>(a, self).value();
      }
      EXPECT_EQ(total, kAccounts * kInitial) << when;
      EXPECT_LE(db->GetCounter(op_counter, self).value(),
                committed_ops.load())
          << when;
      ode::BTree tree = ode::BTree::Open(&KernelOf(*db), index_header);
      EXPECT_TRUE(tree.CheckInvariants(self).ok()) << when;
      uint64_t size = tree.Size(self).value();
      EXPECT_LE(size, committed_index_entries.size()) << when;
      uint64_t found = 0;
      for (const auto& [key, value] : committed_index_entries) {
        auto hit = tree.Search(self, key);
        if (hit.ok()) {
          EXPECT_EQ(*hit, value) << when;
          ++found;
        }
      }
      // Everything in the tree is an acked entry — no phantoms.
      EXPECT_EQ(found, size) << when;
    });
  };

  check_world("before crash");
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  if (c.relaxed) {
    check_world_prefix("after recovery (relaxed durability)");
  } else {
    check_world("after recovery");
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChaosProperty,
                         ::testing::Values(ChaosCase{2, 20, 1},
                                           ChaosCase{4, 15, 2},
                                           ChaosCase{6, 12, 3},
                                           ChaosCase{8, 10, 4},
                                           ChaosCase{4, 15, 5, true},
                                           ChaosCase{8, 10, 6, true},
                                           ChaosCase{4, 15, 7, false, true},
                                           ChaosCase{6, 12, 8, true, true}),
    ChaosCaseName);

}  // namespace
}  // namespace asset
