// asset_bench: the end-to-end benchmark (README.md in this directory).
//
//   asset_bench --workload=all --seconds=20 --seed=1 --out=<dir>
//               [--trace=<file> --ledger]
//
// Every workload runs in its own child process (so peak_rss_mb is that
// workload's). Its timed seconds are split over independent trials, each
// on a freshly set-up instance with its share of the 2 s untimed
// warm-up; every end-to-end metric is the median over the trials, except
// peak_rss_mb, the lowest of the trials' peaks. Each
// metric is printed as `workload metric value unit` and the workload's
// result is written to <dir>/<workload>.json. The exit code is non-zero
// if any correctness check failed.

#include <errno.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger.h"
#include "spans.h"

extern char** environ;

namespace asset_bench {
namespace {

/// Requests whose spans a traced run stores (later ones are timed but
/// not stored).
constexpr uint64_t kTracedRequests = 10000;

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "asset_bench: %s\n"
               "usage: asset_bench --workload=<all|wire_counter|wire_durable|"
               "local_hotspot|nested_trip>\n"
               "         [--seconds=20] [--seed=1] [--connections=4] "
               "[--out=<dir>]\n"
               "         [--trace=<file>] [--ledger]\n",
               why.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* key) -> const char* {
      const size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      cfg.workload = v;
    } else if (const char* v = val("--seed=")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seconds=")) {
      cfg.seconds = std::atof(v);
    } else if (const char* v = val("--connections=")) {
      cfg.connections = std::atoi(v);
    } else if (const char* v = val("--out=")) {
      cfg.out_dir = v;
    } else if (const char* v = val("--trace=")) {
      cfg.trace_file = v;
    } else if (a == "--ledger") {
      cfg.ledger = true;
    } else {
      Usage("unknown flag " + a);
    }
  }
  if (cfg.seconds <= 0 || cfg.connections < 1 || cfg.connections > 64) {
    Usage("out-of-range value");
  }
  if (cfg.workload != "all" && MakeWorkload(cfg.workload) == nullptr) {
    Usage("unknown workload " + cfg.workload);
  }
  return cfg;
}

/// `path` with ".<workload>" before its extension.
std::string PerWorkload(const std::string& path, const std::string& w) {
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + w;
  }
  return path.substr(0, dot) + "." + w + path.substr(dot);
}

/// Runs each workload in a child process of this binary.
int RunAll(const Config& cfg, int argc, char** argv) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    std::perror("asset_bench: readlink /proc/self/exe");
    return 1;
  }
  self[n] = '\0';
  int rc = 0;
  for (const std::string& w : WorkloadNames()) {
    std::vector<std::string> args = {self, "--workload=" + w};
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--workload=", 0) == 0) continue;
      if (a.rfind("--trace=", 0) == 0) {
        args.push_back("--trace=" + PerWorkload(cfg.trace_file, w));
      } else {
        args.push_back(a);
      }
    }
    std::vector<char*> cargs;
    for (auto& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, self, nullptr, nullptr, cargs.data(), environ) !=
        0) {
      std::perror("asset_bench: posix_spawn");
      return 1;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "asset_bench: workload %s failed\n", w.c_str());
      rc = 1;
    }
  }
  return rc;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

uint64_t FdLimit() {
  rlimit rl{};
  return getrlimit(RLIMIT_NOFILE, &rl) == 0 ? rl.rlim_cur : 0;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The per-layer numbers: counters of the traced window, spans, the
/// ledger, and the restart.
std::vector<Metric> PerLayer(const Window& traced, double untraced_throughput,
                             const std::map<std::string, SpanSummary>& spans,
                             const Ledger& l, double recovery_s) {
  using Snap = asset::KernelStats::Snapshot;
  const double txns = static_cast<double>(traced.committed);
  auto d = [&](uint64_t Snap::*f) {
    return traced.KernelDelta([f](const Snap& s) { return s.*f; });
  };
  const double commits = d(&Snap::txns_committed);
  const double cmds = l.cmds_per_txn;
  auto span = [&](const char* name) -> const SpanSummary* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  const SpanSummary* flush = span("client.flush");
  const SpanSummary* receive = span("client.receive");
  std::vector<Metric> m = {
      {"client.flush_us",
       flush != nullptr ? flush->dur_p50_us : l.flush_us_per_txn, "us"},
      {"client.receive_wait_us",
       receive != nullptr ? receive->per_request_p50_us
                          : l.receive_us_per_txn,
       "us"},
      {"api.codec_ns_per_cmd", Ratio(l.codec_us_per_txn * 1e3, cmds),
       "ns/cmd"},
      {"api.session_ns_per_cmd",
       Ratio((l.Row("api") - l.Row("database") - l.codec_us_per_txn) * 1e3,
             cmds),
       "ns/cmd"},
      {"server.loopback_us_per_txn", l.Row("wire") - l.Row("api"), "us/txn"},
      {"server.bytes_per_txn", l.server_bytes_per_txn, "B/txn"},
      {"server.frames_per_txn", l.server_frames_per_txn, "frames/txn"},
      {"core.database_ns_per_op",
       Ratio((l.Row("database") - l.Row("kernel")) * 1e3, cmds), "ns/cmd"},
      {"core.kernel_us_per_txn", l.Row("kernel") - l.Row("store"), "us/txn"},
      {"core.lock_waits_per_txn", Ratio(d(&Snap::lock_waits), txns),
       "count/txn"},
      {"core.lock_wait_retries_per_wait",
       Ratio(d(&Snap::lock_wait_retries), d(&Snap::lock_waits)),
       "count/wait"},
      {"core.deadlocks_per_txn", Ratio(d(&Snap::deadlocks), txns),
       "count/txn"},
      {"core.commit_ratio", Ratio(commits, commits + d(&Snap::txns_aborted)),
       "ratio"},
      {"core.permit_hit_ratio",
       Ratio(d(&Snap::permit_hits), d(&Snap::permit_checks)), "ratio"},
      {"core.permits_inserted_per_txn",
       Ratio(d(&Snap::permits_inserted), txns), "count/txn"},
      {"core.locks_delegated_per_txn",
       Ratio(d(&Snap::locks_delegated), txns), "count/txn"},
      {"core.undo_installs_per_txn", Ratio(d(&Snap::undo_installs), txns),
       "count/txn"},
      {"core.txn_wakeups_per_txn", Ratio(d(&Snap::txn_wakeups), txns),
       "count/txn"},
      {"models.subtxn_us",
       Ratio(l.Row("nested") - l.Row("flat"), l.ops_per_txn), "us"},
      {"storage.store_ns_per_op",
       Ratio(l.Row("store") * 1e3, l.ops_per_txn), "ns/op"},
      {"storage.disk.page_reads_per_txn", l.page_reads_per_txn, "pages/txn"},
      {"storage.disk.page_writes_per_txn", l.page_writes_per_txn,
       "pages/txn"},
      {"storage.wal.fsyncs_per_commit", Ratio(d(&Snap::wal_fsyncs), commits),
       "count/commit"},
      {"storage.wal.records_per_fsync",
       Ratio(d(&Snap::wal_records_flushed), d(&Snap::wal_fsyncs)),
       "records/fsync"},
      {"storage.wal.commit_stall_frac",
       Ratio(d(&Snap::commit_stalls), commits), "ratio"},
      {"storage.wal.durable_wait_us", l.Row("wire_file") - l.Row("wire"),
       "us/txn"},
      {"storage.wal.appends_per_txn", Ratio(d(&Snap::wal_appends), txns),
       "count/txn"},
      {"storage.checkpoints", d(&Snap::checkpoints), "count"},
      {"storage.wal_truncations", d(&Snap::wal_truncations), "count"},
      {"storage.recovery_s", recovery_s, "s"},
      {"trace.throughput_ratio",
       Ratio(traced.throughput(), untraced_throughput), "ratio"},
  };
  for (const LedgerRow& r : l.rows) {
    m.push_back({"ledger." + r.name + "_us", r.us_per_txn, "us/txn"});
  }
  return m;
}

void AddMetrics(Json* j, const std::vector<Metric>& ms) {
  j->Begin('{');
  for (const Metric& m : ms) {
    j->Key(m.name).Begin('{');
    j->Key("value").Num(m.value).Key("unit").Str(m.unit);
    j->End('}');
  }
  j->End('}');
}

/// One trial: a fresh workload instance set up, loaded, restarted and
/// checked. Plain data, so a forked child can hand it back through a
/// pipe.
struct Trial {
  double setup_s = 0;
  double restart_s = 0;
  double seconds = 0;
  double cpu_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double rss_mb = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t wal_bytes = 0;

  double throughput() const { return Ratio(committed, seconds); }
  double cpu_us_per_txn() const { return Ratio(cpu_s * 1e6, committed); }
  double wal_bytes_per_txn() const { return Ratio(wal_bytes, committed); }
};

/// Runs trial `index` in this process. `*window` keeps the window's
/// kernel counters for the per-layer numbers.
asset::Status RunTrial(const Config& cfg, int index, double warmup,
                       double seconds, Tracer* tracer, Trial* out,
                       Window* window, std::vector<std::string>* problems) {
  std::unique_ptr<Workload> w = MakeWorkload(cfg.workload);
  const int64_t t0 = NowNs();
  ASSET_RETURN_NOT_OK(w->Setup(cfg, index));
  out->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  auto win = RunWindow(*w, (cfg.seed << 8) + static_cast<uint64_t>(index),
                       warmup, seconds, tracer);
  if (!win.ok()) return win.status();
  *window = std::move(*win);
  out->seconds = window->seconds;
  out->committed = window->committed;
  out->failed = window->failed;
  out->cpu_s = window->cpu_s;
  out->wal_bytes = window->wal_bytes;
  out->p50_us = Quantile(&window->latency_us, 0.50);
  out->p99_us = Quantile(&window->latency_us, 0.99);
  // The peak so far, before the restart: read after it, the peak
  // includes recovery and differed by up to 2.7 times between trials.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out->rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  auto restart = w->Restart();
  if (!restart.ok()) return restart.status();
  out->restart_s = *restart;
  const size_t before = problems->size();
  w->Check(problems);
  if (out->committed == 0) {
    problems->push_back(cfg.workload + ": nothing committed");
  }
  for (size_t i = before; i < problems->size(); ++i) {
    (*problems)[i] = "trial " + std::to_string(index) + ": " + (*problems)[i];
  }
  return asset::Status::OK();
}

bool WriteAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// Runs trial `index` in a forked child: every trial gets its own process
/// (threads, heap, placement on cores) and its own peak RSS. The child
/// sends back the Trial followed by its problem lines.
asset::Status RunTrialInChild(const Config& cfg, int index, double warmup,
                              double seconds, Trial* out,
                              std::vector<std::string>* problems) {
  int fds[2];
  if (pipe(fds) != 0) return asset::Status::IOError("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return asset::Status::IOError("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Trial t;
    Window w;
    std::vector<std::string> lines;
    asset::Status s =
        RunTrial(cfg, index, warmup, seconds, nullptr, &t, &w, &lines);
    if (!s.ok()) {
      std::fprintf(stderr, "asset_bench: %s: trial %d: %s\n",
                   cfg.workload.c_str(), index, s.ToString().c_str());
      _exit(1);
    }
    std::string text;
    for (const auto& l : lines) text += l + "\n";
    _exit(WriteAll(fds[1], &t, sizeof(t)) &&
                  WriteAll(fds[1], text.data(), text.size())
              ? 0
              : 1);
  }
  close(fds[1]);
  std::string got;
  char buf[4096];
  for (;;) {
    const ssize_t k = read(fds[0], buf, sizeof(buf));
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    got.append(buf, static_cast<size_t>(k));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      got.size() < sizeof(Trial)) {
    return asset::Status::Internal("trial " + std::to_string(index) +
                                   " failed");
  }
  std::memcpy(out, got.data(), sizeof(Trial));
  size_t pos = sizeof(Trial);
  while (pos < got.size()) {
    const size_t nl = got.find('\n', pos);
    problems->push_back(got.substr(pos, nl - pos));
    pos = nl == std::string::npos ? got.size() : nl + 1;
  }
  return asset::Status::OK();
}

int RunOne(const Config& cfg) {
  const std::string& name = cfg.workload;
  auto fail = [&](const std::string& what, const asset::Status& s) {
    std::fprintf(stderr, "asset_bench: %s: %s: %s\n", name.c_str(),
                 what.c_str(), s.ToString().c_str());
    return 1;
  };
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);

  // The end-to-end metrics are medians over untraced trials, each a
  // fresh instance in its own process. A traced run gives half its time
  // to one more trial, traced, in this process.
  const bool traced_run = !cfg.trace_file.empty();
  const double untraced_s = traced_run ? cfg.seconds / 2 : cfg.seconds;
  const double warmup = kWarmupSeconds / kTrials;
  std::vector<std::string> problems;
  std::vector<Trial> trials(kTrials);
  for (int i = 0; i < kTrials; ++i) {
    asset::Status s =
        RunTrialInChild(cfg, i, warmup, untraced_s / kTrials,
                        &trials[static_cast<size_t>(i)], &problems);
    if (!s.ok()) return fail("run", s);
  }
  std::unique_ptr<Tracer> tracer;
  Trial traced;
  Window traced_window;
  if (traced_run) {
    tracer = std::make_unique<Tracer>(kTracedRequests);
    asset::Status s = RunTrial(cfg, kTrials, warmup, cfg.seconds / 2,
                               tracer.get(), &traced, &traced_window,
                               &problems);
    if (!s.ok()) return fail("traced trial", s);
  }

  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(field(t));
    return Median(std::move(v));
  };
  uint64_t committed = 0, failed = 0;
  // Trials' peaks are bimodal: most lie within a few percent of the
  // lowest, some 6-17 MiB above it in no fixed pattern, so a median
  // jumps between the two; the lowest peak is steady.
  double rss_mb = trials[0].rss_mb;
  for (const Trial& t : trials) {
    committed += t.committed;
    failed += t.failed;
    rss_mb = std::min(rss_mb, t.rss_mb);
  }
  const double throughput =
      median_of([](const Trial& t) { return t.throughput(); });
  const std::vector<Metric> e2e = {
      {"throughput_txn_s", throughput, "txn/s"},
      {"latency_p50_us", median_of([](const Trial& t) { return t.p50_us; }),
       "us"},
      {"latency_p99_us", median_of([](const Trial& t) { return t.p99_us; }),
       "us"},
      {"failed_frac",
       Ratio(static_cast<double>(failed),
             static_cast<double>(committed + failed)),
       "ratio"},
      {"cpu_us_per_txn",
       median_of([](const Trial& t) { return t.cpu_us_per_txn(); }),
       "us/txn"},
      {"wal_bytes_per_txn",
       median_of([](const Trial& t) { return t.wal_bytes_per_txn(); }),
       "B/txn"},
      {"setup_s", median_of([](const Trial& t) { return t.setup_s; }), "s"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };

  std::vector<Metric> layers;
  std::map<std::string, SpanSummary> spans;
  Ledger ledger;
  if (traced_run) {
    spans = tracer->Summarize();
    if (!tracer->WriteChromeJson(cfg.trace_file)) {
      problems.push_back(name + ": cannot write " + cfg.trace_file);
    }
  }
  if (cfg.ledger) {
    // Rows run ~1/40 of the window each (0.5 s at the default 20 s).
    const double row_s = std::clamp(cfg.seconds / 40, 0.1, 0.5);
    auto l = RunLedger(name, cfg, row_s);
    if (!l.ok()) return fail("ledger", l.status());
    ledger = std::move(*l);
  }
  if (traced_run) {
    layers = PerLayer(traced_window, throughput, spans, ledger,
                      median_of([](const Trial& t) { return t.restart_s; }));
  }

  // Text report.
  for (const Metric& m : e2e) {
    std::printf("%s %s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s latency_samples %llu count\n", name.c_str(),
              static_cast<unsigned long long>(committed));
  for (const Metric& m : layers) {
    std::printf("%s %s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("%s CHECK FAILED %s\n", name.c_str(), p.c_str());
  }
  std::fflush(stdout);

  Json j;
  j.Begin('{');
  j.Key("workload").Str(name).Key("seed").Int(cfg.seed);
  j.Key("seconds").Num(untraced_s).Key("warmup_s").Num(kWarmupSeconds);
  j.Key("env").Begin('{');
  j.Key("nproc").Int(static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  j.Key("compiler").Str(Compiler());
  j.Key("build_type").Str(ASSET_BENCH_BUILD_TYPE);
  j.Key("git_sha").Str(ASSET_BENCH_GIT_SHA);
  j.Key("fd_limit").Int(FdLimit());
  j.End('}');
  j.Key("correct").Bool(problems.empty());
  j.Key("problems").Begin('[');
  for (const auto& p : problems) j.Str(p);
  j.End(']');
  j.Key("attempted").Int(committed + failed);
  j.Key("committed").Int(committed);
  j.Key("failed").Int(failed);
  j.Key("latency_samples").Int(committed);
  j.Key("trials").Begin('[');
  for (const Trial& t : trials) {
    j.Begin('{').Key("setup_s").Num(t.setup_s);
    j.Key("restart_s").Num(t.restart_s);
    j.Key("seconds").Num(t.seconds);
    j.Key("throughput_txn_s").Num(t.throughput());
    j.Key("latency_p50_us").Num(t.p50_us);
    j.Key("latency_p99_us").Num(t.p99_us);
    j.Key("peak_rss_mb").Num(t.rss_mb);
    j.Key("samples").Int(t.committed).End('}');
  }
  j.End(']');
  j.Key("metrics");
  AddMetrics(&j, e2e);
  if (traced_run) {
    j.Key("trace_file").Str(cfg.trace_file);
    j.Key("spans_stored").Int(tracer->stored());
    j.Key("spans_unstored").Int(tracer->dropped());
    j.Key("traced_throughput_txn_s").Num(traced.throughput());
    j.Key("per_layer");
    AddMetrics(&j, layers);
    j.Key("spans").Begin('{');
    for (const auto& [span_name, s] : spans) {
      j.Key(span_name).Begin('{');
      j.Key("count").Int(s.count).Key("dur_p50_us").Num(s.dur_p50_us);
      j.Key("self_p50_us").Num(s.self_p50_us);
      j.Key("per_request_p50_us").Num(s.per_request_p50_us);
      j.End('}');
    }
    j.End('}');
  }
  if (cfg.ledger) {
    j.Key("ledger").Begin('[');
    for (const LedgerRow& r : ledger.rows) {
      j.Begin('{').Key("row").Str(r.name).Key("us_per_txn").Num(r.us_per_txn);
      j.Key("samples").Int(r.samples).End('}');
    }
    j.End(']');
  }
  j.End('}');
  const std::string path = cfg.out_dir + "/" + name + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  bool written = f != nullptr && std::fputs(j.text().c_str(), f) >= 0;
  if (f != nullptr && std::fclose(f) != 0) written = false;
  if (!written) {
    std::fprintf(stderr, "asset_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace asset_bench

int main(int argc, char** argv) {
  const asset_bench::Config cfg = asset_bench::ParseArgs(argc, argv);
  if (cfg.workload == "all") return asset_bench::RunAll(cfg, argc, argv);
  return asset_bench::RunOne(cfg);
}
