#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "harness.h"

namespace asset_bench {

namespace {

std::atomic<uint64_t> next_epoch{1};

struct LocalRef {
  uint64_t epoch = 0;
  void* spans = nullptr;
};
thread_local LocalRef local_ref;

uint64_t MakeId(uint32_t slot, size_t index) {
  return (static_cast<uint64_t>(slot) + 1) << 32 | (index + 1);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(uint64_t max_requests)
    : max_requests_(max_requests), epoch_(next_epoch.fetch_add(1)) {}

Tracer::~Tracer() = default;

Tracer::ThreadSpans* Tracer::Local() {
  if (local_ref.epoch != epoch_) {
    auto ts = std::make_unique<ThreadSpans>();
    ts->spans.reserve(1 << 12);
    std::lock_guard<std::mutex> g(mu_);
    ts->slot = static_cast<uint32_t>(threads_.size());
    local_ref.epoch = epoch_;
    local_ref.spans = ts.get();
    threads_.push_back(std::move(ts));
  }
  return static_cast<ThreadSpans*>(local_ref.spans);
}

uint64_t Tracer::Open(const char* name, uint64_t parent, uint64_t request,
                      uint32_t lane) {
  const int64_t now = NowNs();
  ThreadSpans* ts = Local();
  if (parent == kDropped ||
      (parent == 0 &&
       requests_.fetch_add(1, std::memory_order_relaxed) >= max_requests_)) {
    ++ts->dropped;
    return kDropped;
  }
  ts->spans.push_back(Span{name, parent, request, now, 0, lane});
  return MakeId(ts->slot, ts->spans.size() - 1);
}

void Tracer::Close(uint64_t id) {
  const int64_t now = NowNs();
  if (id == kDropped || id == 0) return;
  ThreadSpans* ts = Local();
  const size_t index = static_cast<size_t>(id & 0xffffffffu) - 1;
  if ((id >> 32) != static_cast<uint64_t>(ts->slot) + 1 ||
      index >= ts->spans.size()) {
    return;  // not opened on this thread
  }
  ts->spans[index].end_ns = now;
}

uint64_t Tracer::stored() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) n += t->spans.size();
  return n;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t n = 0;
  for (const auto& t : threads_) n += t->dropped;
  return n;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> g(mu_);
  // Children's time per span, indexed like threads_[slot]->spans.
  std::vector<std::vector<int64_t>> child_ns(threads_.size());
  for (size_t s = 0; s < threads_.size(); ++s) {
    child_ns[s].assign(threads_[s]->spans.size(), 0);
  }
  for (const auto& t : threads_) {
    for (const Span& sp : t->spans) {
      if (sp.parent == 0 || sp.end_ns == 0) continue;
      const size_t ps = static_cast<size_t>(sp.parent >> 32) - 1;
      const size_t pi = static_cast<size_t>(sp.parent & 0xffffffffu) - 1;
      if (ps < child_ns.size() && pi < child_ns[ps].size()) {
        child_ns[ps][pi] += sp.end_ns - sp.start_ns;
      }
    }
  }
  struct Acc {
    std::vector<double> dur, self;
    std::unordered_map<uint64_t, double> per_request;
  };
  std::map<std::string, Acc> acc;
  for (size_t s = 0; s < threads_.size(); ++s) {
    const auto& spans = threads_[s]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.end_ns == 0) continue;
      const double dur = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
      Acc& a = acc[sp.name];
      a.dur.push_back(dur);
      a.self.push_back(dur - static_cast<double>(child_ns[s][i]) / 1e3);
      a.per_request[sp.request] += dur;
    }
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, a] : acc) {
    SpanSummary& sum = out[name];
    sum.count = a.dur.size();
    sum.dur_p50_us = Quantile(&a.dur, 0.5);
    sum.self_p50_us = Quantile(&a.self, 0.5);
    std::vector<double> req;
    req.reserve(a.per_request.size());
    for (const auto& kv : a.per_request) req.push_back(kv.second);
    sum.per_request_p50_us = Quantile(&req, 0.5);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& t : threads_) {
    for (const Span& sp : t->spans) origin = std::min(origin, sp.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& sp = t->spans[i];
      if (sp.end_ns == 0) continue;
      const uint32_t tid = sp.lane != 0 ? sp.lane : t->slot + 1;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                   ",\"parent\":%" PRIu64 ",\"request\":%" PRIu64 "}}",
                   first ? "" : ",", sp.name, tid,
                   static_cast<double>(sp.start_ns - origin) / 1e3,
                   static_cast<double>(sp.end_ns - sp.start_ns) / 1e3,
                   MakeId(t->slot, i), sp.parent, sp.request);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace asset_bench
