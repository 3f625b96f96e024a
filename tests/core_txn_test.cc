// Transaction lifecycle tests: initiate/begin/commit/wait/abort, the
// completed-vs-committed distinction, self/parent, status queries, data
// operations, and undo on abort.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "kernel_fixture.h"

namespace asset {
namespace {

using namespace std::chrono_literals;

class TxnLifecycleTest : public KernelFixture {};

TEST_F(TxnLifecycleTest, InitiateDoesNotStartExecution) {
  std::atomic<bool> ran{false};
  Tid t = tm_->Initiate([&] { ran = true; });
  ASSERT_NE(t, kNullTid);
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kInitiated);
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(ran.load());  // §2.1: execution starts only at begin
  EXPECT_TRUE(tm_->Begin(t));
  EXPECT_TRUE(tm_->Commit(t));
  EXPECT_TRUE(ran.load());
}

TEST_F(TxnLifecycleTest, BeginTwiceFails) {
  Tid t = tm_->Initiate([] {});
  EXPECT_TRUE(tm_->Begin(t));
  EXPECT_FALSE(tm_->Begin(t));
  tm_->Commit(t);
}

TEST_F(TxnLifecycleTest, BeginUnknownTidFails) {
  EXPECT_FALSE(tm_->Begin(99999));
}

TEST_F(TxnLifecycleTest, BeginManyStartsAll) {
  std::atomic<int> ran{0};
  Tid a = tm_->Initiate([&] { ran++; });
  Tid b = tm_->Initiate([&] { ran++; });
  Tid c = tm_->Initiate([&] { ran++; });
  EXPECT_TRUE(tm_->Begin({a, b, c}));
  EXPECT_TRUE(tm_->Commit(a));
  EXPECT_TRUE(tm_->Commit(b));
  EXPECT_TRUE(tm_->Commit(c));
  EXPECT_EQ(ran.load(), 3);
}

TEST_F(TxnLifecycleTest, CommitBlocksUntilCompletion) {
  std::atomic<bool> finished{false};
  Tid t = tm_->Initiate([&] {
    std::this_thread::sleep_for(100ms);
    finished = true;
  });
  tm_->Begin(t);
  EXPECT_TRUE(tm_->Commit(t));  // must wait for the sleep
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kCommitted);
}

TEST_F(TxnLifecycleTest, CommitOfCommittedReturnsTrue) {
  Tid t = tm_->Initiate([] {});
  tm_->Begin(t);
  EXPECT_TRUE(tm_->Commit(t));
  EXPECT_TRUE(tm_->Commit(t));
}

TEST_F(TxnLifecycleTest, CommitOfAbortedReturnsFalse) {
  Tid t = tm_->Initiate([] {});
  tm_->Begin(t);
  ASSERT_EQ(tm_->Wait(t), 1);
  EXPECT_TRUE(tm_->Abort(t));
  EXPECT_FALSE(tm_->Commit(t));
}

TEST_F(TxnLifecycleTest, AbortOfCommittedFails) {
  Tid t = tm_->Initiate([] {});
  tm_->Begin(t);
  EXPECT_TRUE(tm_->Commit(t));
  EXPECT_FALSE(tm_->Abort(t));  // paper: abort returns 0 if committed
}

TEST_F(TxnLifecycleTest, AbortOfAbortedSucceeds) {
  Tid t = tm_->Initiate([] {});
  EXPECT_TRUE(tm_->Abort(t));
  EXPECT_TRUE(tm_->Abort(t));
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kAborted);
}

TEST_F(TxnLifecycleTest, WaitReturnsOneOnCompletion) {
  Tid t = tm_->Initiate([] { std::this_thread::sleep_for(50ms); });
  tm_->Begin(t);
  EXPECT_EQ(tm_->Wait(t), 1);
  // Completed but NOT committed: commit is explicit (§2.1).
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kCompleted);
  EXPECT_TRUE(tm_->Commit(t));
}

TEST_F(TxnLifecycleTest, WaitReturnsZeroOnAbort) {
  Tid t = tm_->Initiate([] {});
  tm_->Begin(t);
  tm_->Wait(t);
  tm_->Abort(t);
  EXPECT_EQ(tm_->Wait(t), 0);
}

TEST_F(TxnLifecycleTest, SelfAndParentInsideTransactions) {
  Tid observed_self = kNullTid;
  Tid observed_parent = kNullTid;
  Tid child_tid = kNullTid;
  Tid child_parent = kNullTid;
  Tid t = tm_->Initiate([&] {
    observed_self = TransactionManager::Self();
    observed_parent = TransactionManager::Parent();
    // A transaction initiated from inside another has that parent.
    child_tid = tm_->Initiate([&] {
      child_parent = TransactionManager::Parent();
    });
    tm_->Begin(child_tid);
    tm_->Wait(child_tid);
  });
  tm_->Begin(t);
  ASSERT_TRUE(tm_->Commit(t));
  tm_->Commit(child_tid);
  EXPECT_EQ(observed_self, t);
  EXPECT_EQ(observed_parent, kNullTid);  // top-level: null tid
  EXPECT_EQ(child_parent, t);
  EXPECT_EQ(tm_->ParentOf(child_tid), t);
}

TEST_F(TxnLifecycleTest, SelfOutsideTransactionIsNull) {
  EXPECT_EQ(TransactionManager::Self(), kNullTid);
  EXPECT_EQ(TransactionManager::Parent(), kNullTid);
}

TEST_F(TxnLifecycleTest, CreateReadWriteRoundTrip) {
  ObjectId oid = MakeObject("initial");
  EXPECT_EQ(ReadCommitted(oid), "initial");
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(self, oid, TestBytes("updated")).ok());
    auto v = tm_->Read(self, oid);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(TestStr(*v), "updated");  // reads own write
  });
  tm_->Begin(t);
  ASSERT_TRUE(tm_->Commit(t));
  EXPECT_EQ(ReadCommitted(oid), "updated");
}

TEST_F(TxnLifecycleTest, AbortUndoesWrites) {
  ObjectId oid = MakeObject("original");
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(self, oid, TestBytes("doomed")).ok());
  });
  tm_->Begin(t);
  ASSERT_EQ(tm_->Wait(t), 1);
  ASSERT_TRUE(tm_->Abort(t));
  EXPECT_EQ(ReadCommitted(oid), "original");
}

TEST_F(TxnLifecycleTest, AbortUndoesCreates) {
  ObjectId created = kNullObjectId;
  Tid t = tm_->Initiate([&] {
    created = tm_->CreateObject(TransactionManager::Self(),
                                TestBytes("ephemeral"))
                  .value();
  });
  tm_->Begin(t);
  tm_->Wait(t);
  ASSERT_TRUE(tm_->Abort(t));
  EXPECT_EQ(ReadCommitted(created), "<missing>");
}

TEST_F(TxnLifecycleTest, AbortRestoresDeletes) {
  ObjectId oid = MakeObject("keepme");
  Tid t = tm_->Initiate([&] {
    ASSERT_TRUE(tm_->DeleteObject(TransactionManager::Self(), oid).ok());
  });
  tm_->Begin(t);
  tm_->Wait(t);
  ASSERT_TRUE(tm_->Abort(t));
  EXPECT_EQ(ReadCommitted(oid), "keepme");
}

TEST_F(TxnLifecycleTest, MultipleWritesUndoneToOriginal) {
  ObjectId oid = MakeObject("v0");
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(
          tm_->Write(self, oid, TestBytes("v" + std::to_string(i))).ok());
    }
  });
  tm_->Begin(t);
  tm_->Wait(t);
  tm_->Abort(t);
  EXPECT_EQ(ReadCommitted(oid), "v0");
}

TEST_F(TxnLifecycleTest, AbortSelfInsideFunction) {
  ObjectId oid = MakeObject("safe");
  std::atomic<bool> write_after_abort_failed{false};
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(self, oid, TestBytes("dirty")).ok());
    tm_->Abort(self);
    // Operations after abort(self()) must fail.
    Status s = tm_->Write(self, oid, TestBytes("zombie"));
    write_after_abort_failed = s.IsTxnAborted();
  });
  tm_->Begin(t);
  EXPECT_FALSE(tm_->Commit(t));
  EXPECT_TRUE(write_after_abort_failed.load());
  EXPECT_EQ(ReadCommitted(oid), "safe");
}

TEST_F(TxnLifecycleTest, AbortOfRunningTransactionTakesEffect) {
  std::atomic<bool> keep_running{true};
  ObjectId oid = MakeObject("base");
  Tid t = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    tm_->Write(self, oid, TestBytes("tainted")).ok();
    while (keep_running) {
      // Poll: a data op observes the abort mark.
      if (!tm_->Read(self, oid).ok()) return;
      std::this_thread::sleep_for(1ms);
    }
  });
  tm_->Begin(t);
  std::this_thread::sleep_for(30ms);
  std::thread aborter([&] { EXPECT_TRUE(tm_->Abort(t)); });
  aborter.join();
  keep_running = false;
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kAborted);
  EXPECT_EQ(ReadCommitted(oid), "base");
}

TEST_F(TxnLifecycleTest, UserExceptionAbortsTransaction) {
  ObjectId oid = MakeObject("pristine");
  Tid t = tm_->Initiate([&] {
    tm_->Write(TransactionManager::Self(), oid, TestBytes("half")).ok();
    throw std::runtime_error("user bug");
  });
  tm_->Begin(t);
  EXPECT_FALSE(tm_->Commit(t));
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kAborted);
  EXPECT_EQ(ReadCommitted(oid), "pristine");
}

TEST_F(TxnLifecycleTest, CommittedChangesReachTheLog) {
  ObjectId oid = MakeObject("x");
  Lsn before = log_.durable_lsn();
  Tid t = tm_->Initiate([&] {
    tm_->Write(TransactionManager::Self(), oid, TestBytes("y")).ok();
  });
  tm_->Begin(t);
  ASSERT_TRUE(tm_->Commit(t));
  EXPECT_GT(log_.durable_lsn(), before);  // commit forces the log
}

TEST_F(TxnLifecycleTest, StatusQueriesThroughLifecycle) {
  Tid t = tm_->Initiate([&] { std::this_thread::sleep_for(50ms); });
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kInitiated);
  tm_->Begin(t);
  EXPECT_TRUE(tm_->GetStatus(t) == TxnStatus::kRunning ||
              tm_->GetStatus(t) == TxnStatus::kCompleted);
  tm_->Wait(t);
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kCompleted);
  tm_->Commit(t);
  EXPECT_EQ(tm_->GetStatus(t), TxnStatus::kCommitted);
}

TEST_F(TxnLifecycleTest, MaxTransactionsBoundsInitiate) {
  // Build a tiny-capacity kernel.
  TransactionManager::Options o;
  o.max_transactions = 2;
  LogManager log;
  TransactionManager tiny(&log, &store_, o);
  Tid a = tiny.Initiate([] {});
  Tid b = tiny.Initiate([] {});
  EXPECT_NE(a, kNullTid);
  EXPECT_NE(b, kNullTid);
  EXPECT_EQ(tiny.Initiate([] {}), kNullTid);  // the paper's null tid
  tiny.Begin(a);
  tiny.Commit(a);
  tiny.Abort(b);
}

TEST_F(TxnLifecycleTest, ArgumentsAreBoundAtInitiate) {
  // initiate(f, args): arguments captured by value at initiation time.
  std::atomic<int> observed{0};
  int arg = 41;
  Tid t = tm_->Initiate([&observed](int v) { observed = v; }, arg + 1);
  arg = 0;  // must not affect the bound value
  tm_->Begin(t);
  tm_->Commit(t);
  EXPECT_EQ(observed.load(), 42);
}

TEST_F(TxnLifecycleTest, ActiveTransactionsCountsBegunOnly) {
  EXPECT_EQ(tm_->ActiveTransactions(), 0u);
  Tid t = tm_->Initiate([&] { std::this_thread::sleep_for(80ms); });
  EXPECT_EQ(tm_->ActiveTransactions(), 0u);  // initiated, not begun
  tm_->Begin(t);
  EXPECT_EQ(tm_->ActiveTransactions(), 1u);
  tm_->Commit(t);
  EXPECT_EQ(tm_->ActiveTransactions(), 0u);
}

TEST_F(TxnLifecycleTest, DestructorAbortsStragglers) {
  ObjectId oid = MakeObject("durable");
  {
    TransactionManager::Options o;
    LogManager log;
    TransactionManager scoped(&log, &store_, o);
    Tid t = scoped.Initiate([&] {
      scoped.Write(TransactionManager::Self(), oid, TestBytes("tmp")).ok();
    });
    scoped.Begin(t);
    scoped.Wait(t);
    // No commit: the destructor must abort and undo.
  }
  EXPECT_EQ(ReadCommitted(oid), "durable");
}

}  // namespace
}  // namespace asset
