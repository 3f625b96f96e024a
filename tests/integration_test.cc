// End-to-end tests through the Database facade: typed objects, crash
// recovery, checkpoints, file persistence, and a concurrent banking
// workload with invariant checks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "models/atomic.h"
#include "models/saga.h"

namespace asset {
namespace {

using namespace std::chrono_literals;

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(DatabaseTest, OpenTypedRoundTrip) {
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  bool ok = models::RunAtomic(KernelOf(*db), [&] {
    oid = db->Create<int64_t>(41).value();
    ASSERT_TRUE(db->Put<int64_t>(oid, 42).ok());
    EXPECT_EQ(db->Get<int64_t>(oid).value(), 42);
  });
  EXPECT_TRUE(ok);
  ok = models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(oid).value(), 42);
  });
  EXPECT_TRUE(ok);
}

TEST(DatabaseTest, DecodeSizeMismatchIsCorruption) {
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    oid = KernelOf(*db).CreateObject(TransactionManager::Self(),
                                 Bytes("3bytes"))
              .value();
  });
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(oid).status().code(),
              StatusCode::kCorruption);
  });
}

TEST(DatabaseTest, CrashRecoveryKeepsCommittedDropsInFlight) {
  auto db = Database::Open().value();
  ObjectId committed_oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    committed_oid = db->Create<int64_t>(7).value();
  });
  // An in-flight transaction that never commits: its create must vanish.
  ObjectId doomed_oid = kNullObjectId;
  Tid straggler = KernelOf(*db).Initiate([&] {
    doomed_oid = db->Create<int64_t>(666).value();
  });
  KernelOf(*db).Begin(straggler);
  ASSERT_EQ(KernelOf(*db).Wait(straggler), 1);

  RecoveryManager::Report report;
  ASSERT_TRUE(db->CrashAndRecover(&report).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(committed_oid).value(), 7);
    EXPECT_TRUE(db->Get<int64_t>(doomed_oid).status().IsNotFound());
  });
  EXPECT_FALSE(report.winners.empty());
}

TEST(DatabaseTest, CrashAfterUpdateRestoresCommittedValue) {
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { oid = db->Create<int64_t>(1).value(); });
  // Uncommitted overwrite, flushed to the log but not committed.
  Tid t = KernelOf(*db).Initiate([&] {
    ASSERT_TRUE(db->Put<int64_t>(oid, 999).ok());
  });
  KernelOf(*db).Begin(t);
  ASSERT_EQ(KernelOf(*db).Wait(t), 1);
  LogOf(*db).Flush();
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(oid).value(), 1);
  });
}

TEST(DatabaseTest, CheckpointThenCrashRecoversQuickly) {
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { oid = db->Create<int64_t>(5).value(); });
  ASSERT_TRUE(db->Checkpoint().ok());
  models::RunAtomic(KernelOf(*db), [&] {
    ASSERT_TRUE(db->Put<int64_t>(oid, 6).ok());
  });
  RecoveryManager::Report report;
  ASSERT_TRUE(db->CrashAndRecover(&report).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(oid).value(), 6);
  });
  // Analysis started at the checkpoint, not at the log head.
  EXPECT_LE(report.records_scanned, 6u);
}

TEST(DatabaseTest, RepeatedCrashRecoverCycles) {
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] { oid = db->Create<int64_t>(0).value(); });
  for (int64_t round = 1; round <= 5; ++round) {
    models::RunAtomic(KernelOf(*db), [&] {
      ASSERT_TRUE(db->Put<int64_t>(oid, round).ok());
    });
    ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
    models::RunAtomic(KernelOf(*db), [&] {
      EXPECT_EQ(db->Get<int64_t>(oid).value(), round);
    });
  }
}

TEST(DatabaseTest, FileBackedDataSurvivesReopen) {
  std::string path = ::testing::TempDir() + "/asset_db_reopen.db";
  std::remove(path.c_str());
  ObjectId oid = kNullObjectId;
  {
    Database::Options opts;
    opts.path = path;
    auto db = Database::Open(opts).value();
    models::RunAtomic(KernelOf(*db), [&] {
      oid = db->Create<int64_t>(1234).value();
    });
    ASSERT_TRUE(db->Checkpoint().ok());  // pages to disk
  }
  {
    Database::Options opts;
    opts.path = path;
    auto db = Database::Open(opts).value();
    models::RunAtomic(KernelOf(*db), [&] {
      EXPECT_EQ(db->Get<int64_t>(oid).value(), 1234);
    });
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, ConcurrentBankTransfersConserveTotal) {
  auto db = Database::Open().value();
  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 1000;
  std::vector<ObjectId> accounts;
  models::RunAtomic(KernelOf(*db), [&] {
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(db->Create<int64_t>(kInitial).value());
    }
  });
  ASSERT_EQ(accounts.size(), static_cast<size_t>(kAccounts));

  std::atomic<int> transfers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      Random rng(1000 + w);
      for (int i = 0; i < 40; ++i) {
        size_t from = rng.Uniform(kAccounts);
        size_t to = rng.Uniform(kAccounts);
        if (from == to) continue;
        int64_t amount = static_cast<int64_t>(rng.Range(1, 50));
        bool ok = models::RunAtomicWithRetry(
            KernelOf(*db),
            [&] {
              // Fixed lock order prevents deadlocks.
              ObjectId lo = std::min(accounts[from], accounts[to]);
              ObjectId hi = std::max(accounts[from], accounts[to]);
              auto vlo = db->Get<int64_t>(lo);
              if (!vlo.ok()) return;
              auto vhi = db->Get<int64_t>(hi);
              if (!vhi.ok()) return;
              int64_t f = accounts[from] == lo ? *vlo : *vhi;
              if (f < amount) {
                KernelOf(*db).Abort(TransactionManager::Self());
                return;
              }
              int64_t flo = *vlo + (accounts[from] == lo ? -amount : amount);
              int64_t fhi = *vhi + (accounts[from] == hi ? -amount : amount);
              if (!db->Put<int64_t>(lo, flo).ok()) return;
              if (!db->Put<int64_t>(hi, fhi).ok()) return;
            },
            20);
        if (ok) transfers_done.fetch_add(1);
      }
    });
  }
  // Concurrent auditors: under strict 2PL every snapshot must balance.
  std::atomic<bool> stop_audit{false};
  std::atomic<int> bad_audits{0};
  std::thread auditor([&] {
    while (!stop_audit) {
      models::RunAtomic(KernelOf(*db), [&] {
        int64_t total = 0;
        for (ObjectId a : accounts) {
          auto v = db->Get<int64_t>(a);
          if (!v.ok()) return;
          total += *v;
        }
        if (total != kAccounts * kInitial) bad_audits.fetch_add(1);
      });
      std::this_thread::sleep_for(5ms);
    }
  });
  for (auto& th : threads) th.join();
  stop_audit = true;
  auditor.join();
  EXPECT_EQ(bad_audits.load(), 0);
  EXPECT_GT(transfers_done.load(), 0);
  int64_t total = 0;
  models::RunAtomic(KernelOf(*db), [&] {
    total = 0;
    for (ObjectId a : accounts) total += db->Get<int64_t>(a).value();
  });
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(DatabaseTest, SagaSurvivesCrashAfterCommittedSteps) {
  // Saga steps commit independently; a crash between steps preserves the
  // committed prefix exactly.
  auto db = Database::Open().value();
  ObjectId inventory = kNullObjectId;
  ObjectId orders = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    inventory = db->Create<int64_t>(10).value();
    orders = db->Create<int64_t>(0).value();
  });
  // Step 1 commits: reserve one unit.
  models::Saga saga;
  saga.AddStep(
      [&] {
        int64_t v = db->Get<int64_t>(inventory).value();
        ASSERT_TRUE(db->Put<int64_t>(inventory, v - 1).ok());
      },
      [&] {
        int64_t v = db->Get<int64_t>(inventory).value();
        db->Put<int64_t>(inventory, v + 1).ok();
      });
  saga.AddStep([&] {
    int64_t v = db->Get<int64_t>(orders).value();
    ASSERT_TRUE(db->Put<int64_t>(orders, v + 1).ok());
  });
  auto out = saga.Run(KernelOf(*db));
  EXPECT_TRUE(out.committed);
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(inventory).value(), 9);
    EXPECT_EQ(db->Get<int64_t>(orders).value(), 1);
  });
}

TEST(DatabaseTest, FileBackedWalReplaysWithoutCheckpoint) {
  // Durability through the WAL alone: no checkpoint, no page flush —
  // close the database (its cache dies with it) and reopen; committed
  // work must be reconstructed from the log file.
  std::string path = ::testing::TempDir() + "/asset_db_wal.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ObjectId oid = kNullObjectId;
  ObjectId counter = kNullObjectId;
  {
    Database::Options opts;
    opts.path = path;
    auto db = Database::Open(opts).value();
    models::RunAtomic(KernelOf(*db), [&] {
      oid = db->Create<int64_t>(777).value();
      counter = db->CreateCounter(5).value();
    });
    models::RunAtomic(KernelOf(*db), [&] {
      ASSERT_TRUE(db->Add(counter, 10).ok());
    });
    // An in-flight transaction at "process exit": must not survive.
    Tid straggler = KernelOf(*db).Initiate([&] {
      db->Put<int64_t>(oid, -1).ok();
    });
    KernelOf(*db).Begin(straggler);
    ASSERT_EQ(KernelOf(*db).Wait(straggler), 1);
  }
  {
    Database::Options opts;
    opts.path = path;
    auto db = Database::Open(opts).value();
    models::RunAtomic(KernelOf(*db), [&] {
      EXPECT_EQ(db->Get<int64_t>(oid).value(), 777);
      EXPECT_EQ(db->GetCounter(counter).value(), 15);
    });
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(DatabaseTest, FileBackedSurvivesRepeatedReopens) {
  std::string path = ::testing::TempDir() + "/asset_db_reopen2.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ObjectId counter = kNullObjectId;
  for (int round = 0; round < 4; ++round) {
    Database::Options opts;
    opts.path = path;
    auto db = Database::Open(opts).value();
    if (round == 0) {
      models::RunAtomic(KernelOf(*db), [&] {
        counter = db->CreateCounter(0).value();
      });
    }
    models::RunAtomic(KernelOf(*db), [&] {
      EXPECT_EQ(db->GetCounter(counter).value(), round);
      ASSERT_TRUE(db->Add(counter, 1).ok());
    });
    if (round == 2) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  Database::Options opts;
  opts.path = path;
  auto db = Database::Open(opts).value();
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->GetCounter(counter).value(), 4);
  });
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace asset
