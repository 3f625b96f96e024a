#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/database_internal.h"

namespace asset_bench {

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

struct CounterMark {
  int64_t ns = 0;
  double cpu_s = 0;
  uint64_t wal_bytes = 0;
  asset::KernelStats::Snapshot kernel;
};

CounterMark Mark(Workload& w) {
  CounterMark m;
  m.ns = NowNs();
  m.cpu_s = ProcessCpuSeconds();
  m.wal_bytes = asset::LogOf(w.db()).appended_bytes();
  m.kernel = w.db().Stats();
  return m;
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

asset::Result<Window> RunWindow(Workload& w, uint64_t seed, double warmup,
                                double seconds, Tracer* tracer) {
  const int n = w.threads();
  std::atomic<int> phase{static_cast<int>(Phase::kWarmup)};
  std::vector<ThreadLog> logs(static_cast<size_t>(n));
  std::vector<asset::Status> errors(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      StepContext ctx(t, &phase, &logs[static_cast<size_t>(t)], tracer, seed);
      while (phase.load(std::memory_order_relaxed) !=
             static_cast<int>(Phase::kStop)) {
        asset::Status s = w.Step(ctx);
        if (!s.ok()) {
          errors[static_cast<size_t>(t)] = s;
          phase.store(static_cast<int>(Phase::kStop));
        }
      }
    });
  }
  SleepSeconds(warmup);
  const CounterMark begin = Mark(w);
  int warm = static_cast<int>(Phase::kWarmup);
  phase.compare_exchange_strong(warm, static_cast<int>(Phase::kMeasure));
  SleepSeconds(seconds);
  // Closing the window first keeps late completions out of the counts.
  phase.store(static_cast<int>(Phase::kStop));
  const CounterMark end = Mark(w);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (!e.ok()) return e;
  }

  Window win;
  win.seconds = static_cast<double>(end.ns - begin.ns) / 1e9;
  for (auto& log : logs) {
    win.committed += log.committed;
    win.failed += log.failed;
    win.latency_us.insert(win.latency_us.end(), log.latency_us.begin(),
                          log.latency_us.end());
  }
  std::sort(win.latency_us.begin(), win.latency_us.end());
  win.cpu_s = end.cpu_s - begin.cpu_s;
  win.wal_bytes = end.wal_bytes - begin.wal_bytes;
  win.kernel_begin = begin.kernel;
  win.kernel_end = end.kernel;
  return win;
}

// --- Json -----------------------------------------------------------------

void Json::Sep() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

Json& Json::Begin(char bracket) {
  Sep();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

Json& Json::End(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

Json& Json::Key(const std::string& k) {
  Str(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::Str(const std::string& s) {
  Sep();
  out_ += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Num(double v) {
  Sep();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::Int(uint64_t v) {
  Sep();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::Bool(bool v) {
  Sep();
  out_ += v ? "true" : "false";
  return *this;
}

}  // namespace asset_bench
