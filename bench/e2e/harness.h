#ifndef ASSET_BENCH_E2E_HARNESS_H_
#define ASSET_BENCH_E2E_HARNESS_H_

// The closed-loop harness shared by every workload: an untimed warm-up,
// a timed window, exact percentiles over raw samples, and the counter
// snapshots the per-txn metrics divide.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/database.h"
#include "spans.h"

namespace asset_bench {

/// Nearest-rank quantile; sorts `v` in place. 0 for an empty sample.
double Quantile(std::vector<double>* v, double q);

/// Median of a copy.
double Median(std::vector<double> v);

/// Untimed warm-up seconds per workload, split evenly over the trials.
constexpr double kWarmupSeconds = 2;
/// Independent trials a workload's window is split into; each sets up a
/// fresh instance, and the end-to-end metrics aggregate over the trials.
constexpr int kTrials = 8;

struct Config {
  std::string workload = "all";
  uint64_t seed = 1;
  /// Timed seconds per workload, over all trials.
  double seconds = 20;
  /// Client connections of the wire workloads (threads = min(2, n)).
  int connections = 4;
  /// Result JSON directory; file-backed databases live here too.
  std::string out_dir = ".";
  /// Non-empty: add a traced run and write its spans here.
  std::string trace_file;
  /// Run the layer ledger after the workload.
  bool ledger = false;
};

/// One bench thread's record of the timed window.
struct ThreadLog {
  std::vector<double> latency_us;
  uint64_t committed = 0;
  uint64_t failed = 0;
};

enum class Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// Handed to every Workload::Step call.
class StepContext {
 public:
  StepContext(int thread, const std::atomic<int>* phase, ThreadLog* log,
              Tracer* tracer, uint64_t seed)
      : thread_(thread),
        phase_(phase),
        log_(log),
        tracer_(tracer),
        rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(thread)) {}

  int thread() const { return thread_; }
  /// Null when the run is untraced.
  Tracer* tracer() const { return tracer_; }
  asset::Random& rng() { return rng_; }
  /// Fresh request id for spans (unique per thread and run).
  uint64_t NextRequest() {
    return (static_cast<uint64_t>(thread_) + 1) << 40 | ++requests_;
  }

  /// Accounts one transaction that started at `start_ns` and ends now.
  /// Only transactions that finish inside the timed window count.
  void Done(int64_t start_ns, bool committed) {
    const int64_t end = NowNs();
    if (phase_->load(std::memory_order_relaxed) !=
        static_cast<int>(Phase::kMeasure)) {
      return;
    }
    if (committed) {
      ++log_->committed;
      log_->latency_us.push_back(static_cast<double>(end - start_ns) / 1e3);
    } else {
      ++log_->failed;
    }
  }

 private:
  int thread_;
  const std::atomic<int>* phase_;
  ThreadLog* log_;
  Tracer* tracer_;
  asset::Random rng_;
  uint64_t requests_ = 0;
};

/// One workload instance: a database, its population, and (for the wire
/// workloads) a server with connected clients.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Opens the database, populates it, starts the server and connects
  /// the clients. `trial` keeps the trials' database files apart.
  virtual asset::Status Setup(const Config& cfg, int trial) = 0;
  /// Bench threads the closed loop runs.
  virtual int threads() const = 0;
  /// One closed-loop step of bench thread `ctx.thread()`: runs one or
  /// more transactions and reports each through ctx.Done(). A non-OK
  /// return is a harness failure (lost connection) and stops the run.
  virtual asset::Status Step(StepContext& ctx) = 0;
  /// After the load stopped: checks the program's outputs, appending one
  /// line per violated invariant to `problems`.
  virtual void Check(std::vector<std::string>* problems) = 0;
  /// Restarts the database after the run and returns the seconds the
  /// restart (recovery) took.
  virtual asset::Result<double> Restart() = 0;

  virtual asset::Database& db() = 0;
};

/// The four workload names, in run order.
const std::vector<std::string>& WorkloadNames();
/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Counters of one timed window.
struct Window {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  /// Merged latency samples of committed transactions, µs, sorted.
  std::vector<double> latency_us;
  double cpu_s = 0;
  uint64_t wal_bytes = 0;
  asset::KernelStats::Snapshot kernel_begin, kernel_end;

  double throughput() const {
    return seconds > 0 ? static_cast<double>(committed) / seconds : 0;
  }
  /// Kernel counter delta over the window.
  template <typename F>
  double KernelDelta(F field) const {
    return static_cast<double>(field(kernel_end) - field(kernel_begin));
  }
};

/// Runs `w`'s closed loop: `warmup` seconds untimed, then `seconds`
/// timed. Fails if any Step failed.
asset::Result<Window> RunWindow(Workload& w, uint64_t seed, double warmup,
                                double seconds, Tracer* tracer);

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();

/// Minimal JSON text builder (objects, arrays, numbers, strings).
class Json {
 public:
  Json& Begin(char bracket);  // '{' or '['
  Json& End(char bracket);    // '}' or ']'
  Json& Key(const std::string& k);
  Json& Str(const std::string& s);
  Json& Num(double v);
  Json& Int(uint64_t v);
  Json& Bool(bool v);
  const std::string& text() const { return out_; }

 private:
  void Sep();
  std::string out_;
  bool need_comma_ = false;
};

}  // namespace asset_bench

#endif  // ASSET_BENCH_E2E_HARNESS_H_
