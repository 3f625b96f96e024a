// Flight recorder: trace events must round-trip through a JSON parser,
// order causally per transaction under a multi-threaded mixed workload,
// cost nothing when disabled, and toggle at runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/database_internal.h"
#include "json_lite.h"

namespace asset {
namespace {

using testjson::ParseJson;
using testjson::Value;

std::unique_ptr<Database> OpenTracedDb() {
  Database::Options o;
  o.txn.trace.enabled = true;
  auto db = Database::Open(o);
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

/// 8 threads x `rounds` transactions each against a small shared key
/// space: puts, reads, creates, and deliberate aborts, so lifecycle,
/// lock, and WAL events all fire.
void RunMixedWorkload(Database* db, int threads = 8, int rounds = 25) {
  std::vector<ObjectId> keys;
  {
    auto boot = db->Begin();
    ASSERT_TRUE(boot.ok());
    for (int i = 0; i < 4; ++i) {
      auto oid = boot->Create<int64_t>(i);
      ASSERT_TRUE(oid.ok());
      keys.push_back(*oid);
    }
    ASSERT_TRUE(boot->Commit().ok());
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([db, &keys, w, rounds] {
      for (int r = 0; r < rounds; ++r) {
        auto t = db->Begin();
        if (!t.ok()) continue;
        ObjectId key = keys[(w + r) % keys.size()];
        // Timeouts and deadlocks under contention are fine here — the
        // point is to generate events, not to serialize cleanly.
        (void)t->Put<int64_t>(key, w * 1000 + r);
        if (r % 5 == 4) {
          (void)t->Abort();
        } else {
          (void)t->Commit();
        }
      }
    });
  }
  for (auto& th : workers) th.join();
}

TEST(TraceTest, DumpRoundTripsThroughJsonParser) {
  auto db = OpenTracedDb();
  RunMixedWorkload(db.get());

  std::string json = db->DumpTrace();
  Value root;
  ASSERT_TRUE(ParseJson(json, &root)) << json.substr(0, 400);
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("displayTimeUnit")->str, "ms");

  const Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->arr.empty());

  std::map<std::string, int> names;
  for (const Value& e : events->arr) {
    ASSERT_TRUE(e.is_object());
    // Chrome trace_event required fields, all present on every event.
    ASSERT_NE(e.Find("name"), nullptr);
    ASSERT_NE(e.Find("ph"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    EXPECT_EQ(e.Find("cat")->str, "asset");
    const std::string& ph = e.Find("ph")->str;
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      EXPECT_GT(e.Find("dur")->number, 0.0);
    }
    const Value* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_NE(args->Find("txn"), nullptr);
    names[e.Find("name")->str]++;
  }
  // The mixed workload exercises the whole lifecycle plus the WAL.
  EXPECT_GT(names["txn_initiate"], 0);
  EXPECT_GT(names["txn_begin"], 0);
  EXPECT_GT(names["txn_commit"], 0);
  EXPECT_GT(names["txn_abort"], 0);
  EXPECT_GT(names["wal_append"], 0);
}

TEST(TraceTest, EventsAreCausallyOrderedPerTransaction) {
  auto db = OpenTracedDb();
  RunMixedWorkload(db.get());

  std::vector<TraceEvent> events = KernelOf(*db).recorder().Drain();
  ASSERT_FALSE(events.empty());
  // Drain() returns events sorted by timestamp; verify, then check each
  // transaction's lifecycle reads initiate -> begin -> terminal.
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  struct Lifecycle {
    int64_t initiate = -1, begin = -1, terminal = -1;
  };
  std::map<Tid, Lifecycle> by_txn;
  for (const TraceEvent& e : events) {
    Lifecycle& lc = by_txn[e.tid];
    switch (e.type) {
      case TraceEventType::kTxnInitiate: lc.initiate = e.ts_ns; break;
      case TraceEventType::kTxnBegin: lc.begin = e.ts_ns; break;
      case TraceEventType::kTxnCommit:
      case TraceEventType::kTxnAbort: lc.terminal = e.ts_ns; break;
      default: break;
    }
  }
  int complete = 0;
  for (const auto& [tid, lc] : by_txn) {
    if (lc.initiate < 0 || lc.begin < 0 || lc.terminal < 0) continue;
    ++complete;
    EXPECT_LE(lc.initiate, lc.begin) << "txn " << tid;
    EXPECT_LE(lc.begin, lc.terminal) << "txn " << tid;
  }
  // With 8192-slot rings and ~200 small transactions, nearly all
  // lifecycles are retained; require a healthy majority.
  EXPECT_GT(complete, 50);
}

TEST(TraceTest, LockWaitEventCarriesBlockerAndDuration) {
  auto db = OpenTracedDb();
  auto t1 = db->Begin();
  auto t2 = db->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto oid = t1->Create<int64_t>(1);
  ASSERT_TRUE(oid.ok());

  Status s2;
  std::thread th([&] { s2 = t2->Put<int64_t>(*oid, 2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Tid blocker = t1->id(), waiter = t2->id();
  ASSERT_TRUE(t1->Commit().ok());
  th.join();
  ASSERT_TRUE(s2.ok()) << s2.ToString();
  ASSERT_TRUE(t2->Commit().ok());

  bool found = false;
  for (const TraceEvent& e : KernelOf(*db).recorder().Drain()) {
    if (e.type != TraceEventType::kLockWait || e.tid != waiter) continue;
    found = true;
    EXPECT_EQ(e.other, blocker);
    EXPECT_EQ(e.oid, *oid);
    EXPECT_EQ(e.arg, static_cast<uint64_t>(LockWaitOutcome::kGranted));
    EXPECT_GT(e.dur_ns, 0);
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, DisabledByDefaultProducesEmptyTrace) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(1).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_FALSE(KernelOf(**db).recorder().enabled());
  std::string json = (*db)->DumpTrace();
  Value root;
  ASSERT_TRUE(ParseJson(json, &root));
  EXPECT_TRUE(root.Find("traceEvents")->arr.empty());
  // Disabled tracing never materializes a ring.
  EXPECT_EQ(KernelOf(**db).recorder().ring_count(), 0u);
}

TEST(TraceTest, RuntimeToggleStartsAndStopsRecording) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  FlightRecorder& rec = KernelOf(**db).recorder();

  rec.set_enabled(true);
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(7).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  size_t while_on = rec.Drain().size();
  EXPECT_GT(while_on, 0u);

  rec.set_enabled(false);
  {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(8).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  // Off again: the retained set stops growing.
  EXPECT_EQ(rec.Drain().size(), while_on);
}

TEST(TraceTest, FullRingOverwritesAndCountsDrops) {
  Database::Options o;
  o.txn.trace.enabled = true;
  o.txn.trace.ring_slots = 64;  // tiny ring: the workload must wrap it
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 200; ++i) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(i).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_LE(KernelOf(**db).recorder().Drain().size(),
            64u * KernelOf(**db).recorder().ring_count() + 64u);
  EXPECT_GT(KernelOf(**db).stats().trace_events_dropped.load(), 0u);
}

}  // namespace
}  // namespace asset
