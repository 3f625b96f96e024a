// Deterministic crash-point recovery fuzzer.
//
// A seeded, single-threaded workload runs against a real kernel
// (session transactions over an in-memory stack; the lone committer
// leads every WAL flush it asks for, so each flush is synchronous):
// creates, writes, deletes, counter increments, delegations, commits,
// aborts, and online fuzzy checkpoints with WAL truncation
// interleaved throughout. A reference interpreter tracks the committed
// state after every commit, keyed by the commit record's lsn; the disk
// image is snapshotted at every point the durable boundary and the
// page device are known-consistent (start of run and after each
// checkpoint, which is the only path that writes pages back).
//
// Then, for EVERY durable-prefix length L — including prefixes that
// cut a checkpoint in half (pages flushed, checkpoint record absent),
// cut a runtime abort's CLR chain, or fall inside a truncated log —
// the fuzzer rebuilds a fresh stack from the paired disk snapshot plus
// the re-encoded log prefix, runs recovery, and asserts the store
// equals the reference state of the last commit at or below L. It then
// runs recovery AGAIN on the same stack (double recovery must be a
// byte-identical no-op), and finally replays every mid-recovery crash:
// for each k, the same snapshot plus the prefix extended by the first
// k records the first recovery itself appended (CLRs, aborts) must
// still converge to the same state.
//
// Seed count is bounded by ASSET_CRASH_FUZZER_SEEDS (default 2) so CI
// can widen the search without changing code.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/transaction_manager.h"
#include "storage/recovery.h"

namespace asset {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// Committed state as the reference interpreter sees it.
struct Model {
  std::map<ObjectId, std::string> objects;
  std::map<ObjectId, int64_t> counters;
};

/// Uncommitted effects of one open session transaction. Sessions touch
/// disjoint objects (each claims objects from a free pool and releases
/// them on termination), mirroring what the lock manager enforces.
struct Session {
  Tid tid = kNullTid;
  /// Final pending value per plain object; nullopt = deleted.
  std::map<ObjectId, std::optional<std::string>> writes;
  /// Pending delta per counter (creation folds the initial value in).
  std::map<ObjectId, int64_t> deltas;
  std::set<ObjectId> created;           // plain objects created here
  std::set<ObjectId> created_counters;  // counters created here
  std::set<ObjectId> assigned_plain;    // committed objects on loan
  std::set<ObjectId> assigned_counters;
};

class CrashPointFuzzer {
 public:
  explicit CrashPointFuzzer(uint32_t seed)
      : rng_(seed),
        pool_(&disk_, 256, &log_),
        store_(&pool_) {
    wal_path_ = ::testing::TempDir() + "/asset_crash_fuzzer_" +
                std::to_string(seed) + ".wal";
    EXPECT_TRUE(store_.Open().ok());
    TransactionManager::Options o;
    o.lock.lock_timeout = std::chrono::milliseconds(2000);
    o.commit_timeout = std::chrono::milliseconds(3000);
    tm_ = std::make_unique<TransactionManager>(&log_, &store_, o);
    // The paired image for any crash before the first checkpoint: the
    // device as it was before the workload dirtied anything.
    snapshots_.emplace_back(kNullLsn, disk_.SnapshotForTest());
    models_.emplace_back(kNullLsn, Model{});
  }

  void Run() {
    // 70 steps, then more until the run clears the non-degeneracy
    // floors below: every seed yields a meaningful log.
    for (int round = 0; round < 70 || log_.last_lsn() <= kMinRecords ||
                        models_.size() <= kMinModels;
         ++round) {
      if (::testing::Test::HasFailure()) return;
      Step();
    }
    // Commit every other leftover session; the rest stay open so every
    // suffix of the log carries genuine losers.
    bool commit = true;
    while (!open_.empty()) {
      if (commit) {
        CommitSession(0);
      } else {
        open_.erase(open_.begin());  // left open: a loser at crash time
      }
      commit = !commit;
    }
    EXPECT_TRUE(log_.Flush().ok());
    Archive();
    // Guard against a degenerate run that would make the prefix sweep
    // vacuous: the workload must have committed real transactions and
    // produced a meaningful log.
    EXPECT_GT(models_.size(), kMinModels);
    EXPECT_GT(archive_.size(), kMinRecords);
    CheckAllPrefixes();
  }

 private:
  /// Non-degeneracy floors: committed states and log records per run.
  static constexpr size_t kMinModels = 3;
  static constexpr size_t kMinRecords = 40;

  // --- workload ------------------------------------------------------

  uint32_t Rand(uint32_t n) { return rng_() % n; }

  void Step() {
    uint32_t pick = Rand(100);
    if (open_.empty() && pick >= 16) {
      // With no session open almost every op is a no-op; reseed instead
      // so unlucky seeds still produce a meaningful workload.
      OpenSession();
      return;
    }
    if (pick < 16) {
      OpenSession();
    } else if (pick < 38) {
      WritePlain();
    } else if (pick < 48) {
      CreatePlain();
    } else if (pick < 55) {
      CreateCounter();
    } else if (pick < 67) {
      IncrementCounter();
    } else if (pick < 73) {
      DeletePlain();
    } else if (pick < 78) {
      DelegateAll();
    } else if (pick < 87) {
      if (!open_.empty()) CommitSession(Rand(open_.size()));
    } else if (pick < 93) {
      AbortSession();
    } else {
      CheckpointAndMaybeTruncate();
    }
  }

  void OpenSession() {
    if (open_.size() >= 3) return;
    auto tid = tm_->BeginSession();
    ASSERT_TRUE(tid.ok());
    Session s;
    s.tid = *tid;
    for (int i = 0; i < 2 && !free_plain_.empty(); ++i) {
      size_t j = Rand(free_plain_.size());
      s.assigned_plain.insert(free_plain_[j]);
      free_plain_.erase(free_plain_.begin() + j);
    }
    if (!free_counters_.empty()) {
      size_t j = Rand(free_counters_.size());
      s.assigned_counters.insert(free_counters_[j]);
      free_counters_.erase(free_counters_.begin() + j);
    }
    open_.push_back(std::move(s));
  }

  /// Plain objects `s` may currently write: created or on loan, and not
  /// pending-deleted.
  std::vector<ObjectId> WritablePlain(const Session& s) const {
    std::vector<ObjectId> out;
    for (ObjectId oid : s.created) out.push_back(oid);
    for (ObjectId oid : s.assigned_plain) out.push_back(oid);
    std::erase_if(out, [&](ObjectId oid) {
      auto it = s.writes.find(oid);
      return it != s.writes.end() && !it->second.has_value();
    });
    return out;
  }

  void WritePlain() {
    if (open_.empty()) return;
    Session& s = open_[Rand(open_.size())];
    auto cands = WritablePlain(s);
    if (cands.empty()) return;
    ObjectId oid = cands[Rand(cands.size())];
    std::string val = "v" + std::to_string(next_value_++);
    ASSERT_TRUE(tm_->Write(s.tid, oid, Bytes(val)).ok());
    s.writes[oid] = val;
  }

  void CreatePlain() {
    if (open_.empty()) return;
    Session& s = open_[Rand(open_.size())];
    std::string val = "v" + std::to_string(next_value_++);
    auto oid = tm_->CreateObject(s.tid, Bytes(val));
    ASSERT_TRUE(oid.ok());
    s.created.insert(*oid);
    s.writes[*oid] = val;
  }

  void CreateCounter() {
    if (open_.empty()) return;
    Session& s = open_[Rand(open_.size())];
    int64_t initial = static_cast<int64_t>(Rand(100));
    auto oid = tm_->CreateCounter(s.tid, initial);
    ASSERT_TRUE(oid.ok());
    s.created_counters.insert(*oid);
    s.deltas[*oid] += initial;
  }

  void IncrementCounter() {
    if (open_.empty()) return;
    Session& s = open_[Rand(open_.size())];
    std::vector<ObjectId> cands(s.created_counters.begin(),
                                s.created_counters.end());
    cands.insert(cands.end(), s.assigned_counters.begin(),
                 s.assigned_counters.end());
    if (cands.empty()) return;
    ObjectId oid = cands[Rand(cands.size())];
    int64_t delta = static_cast<int64_t>(Rand(21)) - 10;
    ASSERT_TRUE(tm_->Increment(s.tid, oid, delta).ok());
    s.deltas[oid] += delta;
  }

  void DeletePlain() {
    if (open_.empty()) return;
    Session& s = open_[Rand(open_.size())];
    auto cands = WritablePlain(s);
    if (cands.empty()) return;
    ObjectId oid = cands[Rand(cands.size())];
    ASSERT_TRUE(tm_->DeleteObject(s.tid, oid).ok());
    s.writes[oid] = std::nullopt;
  }

  /// delegate(a, b): b takes over everything a did, then a commits
  /// empty-handed and goes away. The reference interpreter moves a's
  /// pending effects (and object loans) to b, exactly the semantics
  /// recovery must reconstruct from the kDelegate* records.
  void DelegateAll() {
    if (open_.size() < 2) return;
    size_t ai = Rand(open_.size());
    size_t bi = Rand(open_.size() - 1);
    if (bi >= ai) ++bi;
    Session& a = open_[ai];
    Session& b = open_[bi];
    ASSERT_TRUE(tm_->Delegate(a.tid, b.tid).ok());
    for (auto& [oid, val] : a.writes) b.writes[oid] = std::move(val);
    for (auto& [oid, d] : a.deltas) b.deltas[oid] += d;
    b.created.insert(a.created.begin(), a.created.end());
    b.created_counters.insert(a.created_counters.begin(),
                              a.created_counters.end());
    b.assigned_plain.insert(a.assigned_plain.begin(), a.assigned_plain.end());
    b.assigned_counters.insert(a.assigned_counters.begin(),
                               a.assigned_counters.end());
    Tid a_tid = a.tid;
    open_.erase(open_.begin() + ai);
    ASSERT_TRUE(tm_->CommitTxn(a_tid).ok());
    Model unchanged = models_.back().second;
    models_.emplace_back(log_.durable_lsn(), std::move(unchanged));
  }

  void CommitSession(size_t idx) {
    Session s = std::move(open_[idx]);
    open_.erase(open_.begin() + idx);
    ASSERT_TRUE(tm_->CommitTxn(s.tid).ok());
    Model m = models_.back().second;
    for (const auto& [oid, val] : s.writes) {
      if (val.has_value()) {
        m.objects[oid] = *val;
      } else {
        m.objects.erase(oid);
      }
    }
    for (const auto& [oid, d] : s.deltas) m.counters[oid] += d;
    // Strict durability + a lone committer that led its own flush: the
    // durable boundary now sits exactly on this commit record.
    models_.emplace_back(log_.durable_lsn(), m);
    for (const auto& [oid, val] : s.writes) {
      if (val.has_value()) free_plain_.push_back(oid);
    }
    for (ObjectId oid : s.assigned_plain) {
      if (!s.writes.count(oid)) free_plain_.push_back(oid);
    }
    for (ObjectId oid : s.created_counters) free_counters_.push_back(oid);
    for (ObjectId oid : s.assigned_counters) free_counters_.push_back(oid);
  }

  void AbortSession() {
    if (open_.empty()) return;
    size_t idx = Rand(open_.size());
    Session s = std::move(open_[idx]);
    open_.erase(open_.begin() + idx);
    ASSERT_TRUE(tm_->AbortTxn(s.tid).ok());
    // Loaned committed objects survive the abort untouched.
    for (ObjectId oid : s.assigned_plain) free_plain_.push_back(oid);
    for (ObjectId oid : s.assigned_counters) free_counters_.push_back(oid);
  }

  void CheckpointAndMaybeTruncate() {
    auto lsn = RecoveryManager::FuzzyCheckpoint(
        &log_, &pool_, [this] { return tm_->SnapshotActiveTransactions(); },
        std::chrono::milliseconds(5000));
    ASSERT_TRUE(lsn.ok());
    // The checkpoint flushed pages under the WAL rule, so (device image,
    // durable boundary) is a legal crash pairing for every L >= here.
    snapshots_.emplace_back(log_.durable_lsn(), disk_.SnapshotForTest());
    if (Rand(2) == 0) {
      Archive();  // keep the dropped records for prefix replay
      auto dropped = log_.TruncatePrefix();
      ASSERT_TRUE(dropped.ok());
      if (*dropped > 0) {
        truncated_ += *dropped;
        trunc_history_.emplace_back(log_.durable_lsn(), truncated_);
      }
    }
  }

  // --- prefix replay -------------------------------------------------

  /// Folds the currently retained durable records into the archive
  /// (truncation physically drops them from the log; prefix replay
  /// still needs them for crash points that predate the truncation).
  void Archive() {
    for (auto& rec : log_.ReadDurable()) archive_[rec.lsn] = std::move(rec);
  }

  /// The log's physical start for a crash at durable prefix L: the
  /// truncation state as of the last truncation that had completed by
  /// the time L was the durable end.
  Lsn TruncAt(Lsn l) const {
    Lsn t = 0;
    for (const auto& [at, trunc] : trunc_history_) {
      if (at <= l) t = trunc;
    }
    return t;
  }

  const std::vector<std::vector<uint8_t>>& SnapshotAt(Lsn l) const {
    const std::vector<std::vector<uint8_t>>* best = &snapshots_.front().second;
    for (const auto& [at, snap] : snapshots_) {
      if (at <= l) best = &snap;
    }
    return *best;
  }

  const Model& ExpectedAt(Lsn l) const {
    const Model* best = &models_.front().second;
    for (const auto& [at, m] : models_) {
      if (at <= l) best = &m;
    }
    return *best;
  }

  struct Replay {
    bool ok = false;
    std::map<ObjectId, std::vector<uint8_t>> raw;  // full store dump
    std::vector<LogRecord> appended;  // records recovery itself wrote
  };

  /// Builds a fresh stack from (disk snapshot, re-encoded log records),
  /// recovers, and dumps the store. With `rerun`, recovers a second
  /// time on the same stack and asserts a byte-identical dump.
  Replay RecoverOnce(const std::vector<LogRecord>& recs,
                     const std::vector<std::vector<uint8_t>>& snap,
                     bool rerun, Lsn label) {
    Replay out;
    std::vector<uint8_t> bytes;
    for (const auto& r : recs) r.EncodeTo(&bytes);
    {
      std::ofstream f(wal_path_, std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    }
    InMemoryDiskManager disk;
    disk.RestoreForTest(snap);
    LogManager log;
    Status s = log.AttachFile(wal_path_);
    EXPECT_TRUE(s.ok()) << "prefix " << label << ": " << s.ToString();
    if (!s.ok()) return out;
    BufferPool pool(&disk, 256, &log);
    ObjectStore store(&pool);
    s = store.Open();
    EXPECT_TRUE(s.ok()) << "prefix " << label << ": " << s.ToString();
    if (!s.ok()) return out;
    auto rep = RecoveryManager::Recover(&log, &store);
    EXPECT_TRUE(rep.ok()) << "prefix " << label << ": "
                          << rep.status().ToString();
    if (!rep.ok()) return out;
    auto dump = [&store] {
      std::map<ObjectId, std::vector<uint8_t>> d;
      for (ObjectId oid : store.ListObjects()) d[oid] = *store.Read(oid);
      return d;
    };
    out.raw = dump();
    if (rerun) {
      auto rep2 = RecoveryManager::Recover(&log, &store);
      EXPECT_TRUE(rep2.ok()) << "prefix " << label << ": "
                             << rep2.status().ToString();
      if (!rep2.ok()) return out;
      EXPECT_EQ(rep2->undo_applied, 0u) << "prefix " << label;
      EXPECT_TRUE(dump() == out.raw)
          << "prefix " << label << ": double recovery changed the store";
    }
    Lsn prefix_end = recs.back().lsn;
    for (auto& rec : log.ReadDurable()) {
      if (rec.lsn > prefix_end) out.appended.push_back(std::move(rec));
    }
    out.ok = true;
    return out;
  }

  void ExpectMatchesModel(const Replay& r, const Model& m, Lsn label,
                          const char* what) {
    std::set<ObjectId> want;
    for (const auto& [oid, _] : m.objects) want.insert(oid);
    for (const auto& [oid, _] : m.counters) want.insert(oid);
    std::set<ObjectId> got;
    for (const auto& [oid, _] : r.raw) got.insert(oid);
    EXPECT_EQ(got, want) << what << " at prefix " << label
                         << ": live object set diverged from the oracle";
    for (const auto& [oid, val] : m.objects) {
      auto it = r.raw.find(oid);
      if (it == r.raw.end()) continue;  // already reported above
      EXPECT_EQ(std::string(it->second.begin(), it->second.end()), val)
          << what << " at prefix " << label << ": object " << oid;
    }
    for (const auto& [oid, val] : m.counters) {
      auto it = r.raw.find(oid);
      if (it == r.raw.end()) continue;
      ASSERT_EQ(it->second.size(), 16u)
          << what << " at prefix " << label << ": counter " << oid;
      int64_t stored = 0;
      std::memcpy(&stored, it->second.data() + 8, sizeof(stored));
      EXPECT_EQ(stored, val) << what << " at prefix " << label << ": counter "
                             << oid;
    }
  }

  void CheckAllPrefixes() {
    const Lsn end = log_.durable_lsn();
    ASSERT_GT(end, 0u);
    for (Lsn l = 1; l <= end; ++l) {
      Lsn trunc = TruncAt(l);
      std::vector<LogRecord> recs;
      for (Lsn i = trunc + 1; i <= l; ++i) {
        auto it = archive_.find(i);
        ASSERT_NE(it, archive_.end()) << "archive hole at lsn " << i;
        recs.push_back(it->second);
      }
      const auto& snap = SnapshotAt(l);
      const Model& expect = ExpectedAt(l);
      Replay r = RecoverOnce(recs, snap, /*rerun=*/true, l);
      if (!r.ok) return;
      ExpectMatchesModel(r, expect, l, "recovery");
      // Crash *during* recovery: the same device image plus the prefix
      // extended by the first k records recovery appended (CLRs and
      // abort records) must converge to the same state.
      for (size_t k = 1; k <= r.appended.size(); ++k) {
        auto recs2 = recs;
        recs2.insert(recs2.end(), r.appended.begin(),
                     r.appended.begin() + static_cast<ptrdiff_t>(k));
        Replay r2 = RecoverOnce(recs2, snap, /*rerun=*/false, l);
        if (!r2.ok) return;
        ExpectMatchesModel(r2, expect, l, "mid-recovery crash");
      }
      if (::testing::Test::HasFailure()) return;
    }
  }

  std::mt19937 rng_;
  InMemoryDiskManager disk_;
  LogManager log_;
  BufferPool pool_;
  ObjectStore store_;
  std::unique_ptr<TransactionManager> tm_;
  std::string wal_path_;

  std::vector<Session> open_;
  std::vector<ObjectId> free_plain_;
  std::vector<ObjectId> free_counters_;
  uint64_t next_value_ = 0;

  /// (durable lsn, committed state) after each commit, in lsn order.
  std::vector<std::pair<Lsn, Model>> models_;
  /// (durable lsn, device image) pairings legal for any crash at or
  /// after the lsn.
  std::vector<std::pair<Lsn, std::vector<std::vector<uint8_t>>>> snapshots_;
  /// Every durable record ever, surviving truncation.
  std::map<Lsn, LogRecord> archive_;
  /// (durable end when the truncation ran, records truncated by then).
  std::vector<std::pair<Lsn, Lsn>> trunc_history_;
  Lsn truncated_ = 0;
};

TEST(CrashPointFuzzerTest, EveryDurablePrefixRecoversToOracleState) {
  int seeds = 2;
  if (const char* env = std::getenv("ASSET_CRASH_FUZZER_SEEDS")) {
    seeds = std::max(1, std::atoi(env));
  }
  for (int i = 0; i < seeds && !::testing::Test::HasFailure(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(1337 + i));
    CrashPointFuzzer fuzzer(1337 + static_cast<uint32_t>(i));
    fuzzer.Run();
  }
}

}  // namespace
}  // namespace asset
