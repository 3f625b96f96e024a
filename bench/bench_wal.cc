// B15 — Leader-follower group commit on the WAL (DESIGN.md §4B).
//
// Question: with a real file behind the log and force-log-at-commit on,
// what commit throughput do N concurrent committers get, and how many
// fsyncs does each commit cost? Baseline: one committer thread, which
// leads every flush itself — one pwrite+fsync per commit. With more
// committers, those arriving while a leader fsyncs follow it and share
// the next batch's fsync; the relaxed variant acks commits without
// waiting for a flush already in progress.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/random.h"

namespace asset::bench {
namespace {

// Mode axis for the benchmark (state.range(0)).
constexpr int kStrict = 0;   // commit waits until its record is durable
constexpr int kRelaxed = 1;  // commit acks once its record is queued

/// A file-backed variant of BenchKernel: pages stay in memory (we are
/// measuring the log path, not page I/O), but the WAL is attached to a
/// real temporary file so Append/Flush perform actual pwrite+fsync.
class WalBenchKernel {
 public:
  explicit WalBenchKernel(int mode)
      : pool_(&disk_, 4096, &log_),
        store_(&pool_) {
    static std::atomic<uint64_t> counter{0};
    path_ = "/tmp/asset_bench_wal_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".wal";
    ::remove(path_.c_str());
    log_.AttachFile(path_).ok();
    store_.Open().ok();
    TransactionManager::Options o;
    o.force_log_at_commit = true;
    o.durability = mode == kRelaxed ? DurabilityPolicy::kRelaxed
                                    : DurabilityPolicy::kStrict;
    o.lock.lock_timeout = std::chrono::milliseconds(30000);
    o.commit_timeout = std::chrono::milliseconds(60000);
    o.max_transactions = 1 << 20;
    tm_ = std::make_unique<TransactionManager>(&log_, &store_, o);
  }

  ~WalBenchKernel() {
    tm_.reset();
    ::remove(path_.c_str());
  }

  TransactionManager& tm() { return *tm_; }

  std::vector<ObjectId> MakeObjects(size_t n, size_t size = 64) {
    std::vector<ObjectId> oids;
    oids.reserve(n);
    auto data = Payload(size);
    for (size_t i = 0; i < n; ++i) {
      oids.push_back(store_.Create(data).value());
    }
    return oids;
  }

  bool RunTxn(std::function<void()> fn) {
    Tid t = tm_->InitiateFn(std::move(fn));
    if (t == kNullTid || !tm_->Begin(t)) return false;
    return tm_->Commit(t);
  }

 private:
  std::string path_;
  InMemoryDiskManager disk_;
  LogManager log_;
  BufferPool pool_;
  ObjectStore store_;
  std::unique_ptr<TransactionManager> tm_;
};

// One iteration = one transaction writing a single private object and
// committing, which forces its commit record to the file. Each thread
// owns a disjoint slice of the object pool, so the benchmark measures
// the durability path, not lock contention.
void BM_Commit(benchmark::State& state) {
  static WalBenchKernel* kernel = nullptr;
  static std::vector<ObjectId>* oids = nullptr;
  if (state.thread_index() == 0) {
    kernel = new WalBenchKernel(static_cast<int>(state.range(0)));
    oids = new std::vector<ObjectId>(kernel->MakeObjects(256));
  }
  Random rng(31 * (state.thread_index() + 1));
  auto payload = Payload(64);
  for (auto _ : state) {
    // The statics are touched only past the start barrier (and in
    // thread 0's setup above) — same discipline as the other benches.
    const size_t slice = oids->size() / static_cast<size_t>(state.threads());
    const size_t base = slice * static_cast<size_t>(state.thread_index());
    bool ok = kernel->RunTxn([&] {
      Tid self = TransactionManager::Self();
      ObjectId oid = (*oids)[base + rng.Uniform(slice)];
      kernel->tm().Write(self, oid, payload).ok();
    });
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    auto snap = kernel->tm().stats().snapshot();
    if (snap.txns_committed > 0) {
      state.counters["fsyncs_per_commit"] =
          static_cast<double>(snap.wal_fsyncs) /
          static_cast<double>(snap.txns_committed);
    }
    state.counters["records_per_fsync"] = snap.wal_records_per_fsync();
    state.counters["commit_stalls"] = static_cast<double>(snap.commit_stalls);
    delete oids;
    delete kernel;
  }
}
BENCHMARK(BM_Commit)
    ->ArgName("mode")  // 0 = strict, 1 = relaxed
    ->Arg(kStrict)
    ->Arg(kRelaxed)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace asset::bench
