// Conflict-serializability verification: committed transactions'
// reads/writes are recorded as versioned events, a precedence graph
// (WR, WW, RW edges) is built after the run, and acyclicity is asserted
// — for random contended workloads under plain strict 2PL, and for the
// checker itself on synthetic histories (including a known-bad one).

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "kernel_fixture.h"
#include "models/atomic.h"

namespace asset {
namespace {

// A version is identified by the writing transaction and a per-object
// sequence number embedded in the object value.
struct Version {
  Tid writer = kNullTid;  // kNullTid = the initial version
  uint64_t seq = 0;
  bool operator==(const Version&) const = default;
};

struct VersionedValue {
  Tid writer;
  uint64_t seq;
};

struct Event {
  Tid txn;
  ObjectId object;
  bool is_write;
  Version read;     // version observed (reads and RMW writes)
  Version written;  // for writes: the version this op produced
};

/// Collects events from concurrent transactions and checks the
/// precedence graph of the committed subset.
class HistoryRecorder {
 public:
  void Record(Event e) {
    std::lock_guard<std::mutex> g(mu_);
    events_.push_back(e);
  }
  void MarkCommitted(Tid t) {
    std::lock_guard<std::mutex> g(mu_);
    committed_.insert(t);
  }

  /// True iff the committed history's precedence graph is acyclic.
  bool IsSerializable() const {
    std::lock_guard<std::mutex> g(mu_);
    // Per object: order committed versions by the chain of "written
    // after read" pairs. Each committed write observed its predecessor
    // version, which gives the version order directly.
    std::unordered_map<Tid, std::unordered_set<Tid>> adj;
    auto add_edge = [&](Tid from, Tid to) {
      if (from != kNullTid && to != kNullTid && from != to) {
        adj[from].insert(to);
      }
    };
    // Version successor map per object: version -> the committed version
    // that overwrote it.
    struct VKey {
      ObjectId object;
      Tid writer;
      uint64_t seq;
      bool operator==(const VKey&) const = default;
    };
    struct VKeyHash {
      size_t operator()(const VKey& k) const {
        return std::hash<uint64_t>()(k.object * 1000003 + k.seq) ^
               std::hash<uint64_t>()(k.writer);
      }
    };
    std::unordered_map<VKey, Tid, VKeyHash> overwritten_by;
    for (const Event& e : events_) {
      if (!e.is_write || committed_.count(e.txn) == 0) continue;
      overwritten_by[VKey{e.object, e.read.writer, e.read.seq}] = e.txn;
    }
    for (const Event& e : events_) {
      if (committed_.count(e.txn) == 0) continue;
      if (e.is_write) {
        // WW: predecessor version's writer precedes us.
        add_edge(e.read.writer, e.txn);
      } else {
        // WR: the version's writer precedes the reader.
        add_edge(e.read.writer, e.txn);
        // RW: the reader precedes whoever overwrote the version it saw.
        auto it =
            overwritten_by.find(VKey{e.object, e.read.writer, e.read.seq});
        if (it != overwritten_by.end()) add_edge(e.txn, it->second);
      }
    }
    // Cycle check via iterative three-color DFS.
    std::unordered_map<Tid, int> color;  // 0 white, 1 gray, 2 black
    for (const auto& [node, _] : adj) {
      if (color[node] != 0) continue;
      std::deque<std::pair<Tid, std::vector<Tid>>> stack;
      auto neighbors = [&](Tid n) {
        auto it = adj.find(n);
        return it == adj.end() ? std::vector<Tid>{}
                               : std::vector<Tid>(it->second.begin(),
                                                  it->second.end());
      };
      stack.push_back({node, neighbors(node)});
      color[node] = 1;
      while (!stack.empty()) {
        auto& [cur, next] = stack.back();
        if (next.empty()) {
          color[cur] = 2;
          stack.pop_back();
          continue;
        }
        Tid n = next.back();
        next.pop_back();
        if (color[n] == 1) return false;  // back edge: cycle
        if (color[n] == 0) {
          color[n] = 1;
          stack.push_back({n, neighbors(n)});
        }
      }
    }
    return true;
  }

  size_t EventCount() const {
    std::lock_guard<std::mutex> g(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::unordered_set<Tid> committed_;
};

// --- Checker self-tests on synthetic histories ------------------------------

TEST(HistoryCheckerTest, SerialHistoryPasses) {
  HistoryRecorder h;
  // t1 writes x (over initial), t2 reads t1's version then writes.
  h.Record({1, 10, true, Version{kNullTid, 0}, Version{1, 1}});
  h.Record({2, 10, false, Version{1, 1}, {}});
  h.Record({2, 10, true, Version{1, 1}, Version{2, 2}});
  h.MarkCommitted(1);
  h.MarkCommitted(2);
  EXPECT_TRUE(h.IsSerializable());
}

TEST(HistoryCheckerTest, LostUpdateCycleDetected) {
  HistoryRecorder h;
  // Classic lost update: both read the initial version, both write.
  h.Record({1, 10, false, Version{kNullTid, 0}, {}});
  h.Record({2, 10, false, Version{kNullTid, 0}, {}});
  h.Record({1, 10, true, Version{kNullTid, 0}, Version{1, 1}});
  h.Record({2, 10, true, Version{1, 1}, Version{2, 2}});
  // t1 read initial; t2 overwrote... and t2 read initial which t1
  // overwrote: RW edges both ways.
  h.MarkCommitted(1);
  h.MarkCommitted(2);
  EXPECT_FALSE(h.IsSerializable());
}

TEST(HistoryCheckerTest, UncommittedTransactionsIgnored) {
  HistoryRecorder h;
  h.Record({1, 10, false, Version{kNullTid, 0}, {}});
  h.Record({2, 10, false, Version{kNullTid, 0}, {}});
  h.Record({1, 10, true, Version{kNullTid, 0}, Version{1, 1}});
  h.Record({2, 10, true, Version{1, 1}, Version{2, 2}});
  h.MarkCommitted(2);  // t1 aborted: no cycle among committed
  EXPECT_TRUE(h.IsSerializable());
}

TEST(HistoryCheckerTest, WriteSkewCycleDetected) {
  HistoryRecorder h;
  // t1 reads y then writes x; t2 reads x then writes y — both from the
  // initial versions.
  h.Record({1, 2, false, Version{kNullTid, 0}, {}});   // t1 reads y
  h.Record({2, 1, false, Version{kNullTid, 0}, {}});   // t2 reads x
  h.Record({1, 1, true, Version{kNullTid, 0}, Version{1, 1}});  // t1 w x
  h.Record({2, 2, true, Version{kNullTid, 0}, Version{2, 1}});  // t2 w y
  h.MarkCommitted(1);
  h.MarkCommitted(2);
  EXPECT_FALSE(h.IsSerializable());
}

// --- Kernel property: random contended RMW workloads are serializable ------

struct WorkloadCase {
  int threads;
  int txns_per_thread;
  int objects;
  uint64_t seed;
};

/// Names each case by its fields (a struct parameter would otherwise be
/// printed as raw bytes, padding included).
std::string WorkloadCaseName(
    const ::testing::TestParamInfo<WorkloadCase>& info) {
  const WorkloadCase& c = info.param;
  return "t" + std::to_string(c.threads) + "_txns" +
         std::to_string(c.txns_per_thread) + "_objs" +
         std::to_string(c.objects) + "_seed" + std::to_string(c.seed);
}

class SerializabilityProperty : public ::testing::TestWithParam<WorkloadCase> {
};

TEST_P(SerializabilityProperty, CommittedHistoryIsConflictSerializable) {
  const auto& c = GetParam();
  auto db = Database::Open().value();
  HistoryRecorder history;

  // Objects hold VersionedValue; version seq counts writes per object.
  std::vector<ObjectId> oids;
  models::RunAtomic(KernelOf(*db), [&] {
    for (int i = 0; i < c.objects; ++i) {
      oids.push_back(db->Create(VersionedValue{kNullTid, 0}).value());
    }
  });

  std::vector<std::thread> threads;
  for (int w = 0; w < c.threads; ++w) {
    threads.emplace_back([&, w] {
      Random rng(c.seed * 101 + w);
      for (int i = 0; i < c.txns_per_thread; ++i) {
        // Each transaction reads 1-2 objects and RMWs 1-2 others, in
        // sorted object order (deadlock avoidance keeps the retry noise
        // down; correctness does not depend on it).
        std::vector<size_t> picks;
        int n = static_cast<int>(rng.Range(2, 4));
        for (int k = 0; k < n; ++k) {
          picks.push_back(rng.Uniform(oids.size()));
        }
        std::sort(picks.begin(), picks.end());
        picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
        std::vector<Event> local;
        Tid committed_tid = kNullTid;
        Tid t = KernelOf(*db).InitiateFn([&] {
          local.clear();
          Tid self = TransactionManager::Self();
          for (size_t j = 0; j < picks.size(); ++j) {
            ObjectId oid = oids[picks[j]];
            auto cur = db->Get<VersionedValue>(oid, self);
            if (!cur.ok()) return;
            Version seen{cur->writer, cur->seq};
            bool write = j % 2 == 0;  // alternate RMW and pure read
            if (write) {
              VersionedValue next{self, cur->seq + 1};
              if (!db->Put(oid, next, self).ok()) return;
              local.push_back(
                  {self, oid, true, seen, Version{self, next.seq}});
            } else {
              local.push_back({self, oid, false, seen, {}});
            }
          }
        });
        KernelOf(*db).Begin(t);
        if (KernelOf(*db).Commit(t)) committed_tid = t;
        if (committed_tid != kNullTid) {
          for (const Event& e : local) history.Record(e);
          history.MarkCommitted(committed_tid);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(history.EventCount(), 0u);
  EXPECT_TRUE(history.IsSerializable());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializabilityProperty,
    ::testing::Values(WorkloadCase{2, 30, 4, 1}, WorkloadCase{4, 25, 3, 2},
                      WorkloadCase{4, 25, 8, 3}, WorkloadCase{8, 15, 4, 4},
                      WorkloadCase{8, 15, 16, 5},
                      WorkloadCase{6, 20, 2, 6}),
    WorkloadCaseName);

}  // namespace
}  // namespace asset
