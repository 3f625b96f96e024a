#ifndef ASSET_BENCH_E2E_SPANS_H_
#define ASSET_BENCH_E2E_SPANS_H_

// Bench-side spans. The benchmark wraps every public call it makes into
// the system (client.flush, txn.get, models.subtxn, ...) in a span that
// records its name, parent, request id, start and end. Spans stay in
// per-thread memory while the load runs and are written as Chrome
// trace_event JSON once it has stopped; nothing inside the program under
// test is instrumented.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace asset_bench {

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Per-name summary of the recorded spans.
struct SpanSummary {
  uint64_t count = 0;
  double dur_p50_us = 0;
  /// Median self time: duration minus the time the span's children cover.
  double self_p50_us = 0;
  /// Median over requests of the summed duration of this name's spans in
  /// one request (e.g. the three client.receive calls of one batch).
  double per_request_p50_us = 0;
};

class Tracer {
 public:
  /// Id of a span that was timed but not stored (its request came after
  /// the first `max_requests`); its children are dropped with it.
  static constexpr uint64_t kDropped = ~0ull;

  /// Stores the spans of the first `max_requests` requests (root spans);
  /// later ones are still timed, so the tracing cost stays the same.
  explicit Tracer(uint64_t max_requests);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id. `parent` is 0
  /// for a root; `request` groups the spans of one request; `lane` picks
  /// the Chrome-trace row (0 = the calling thread's own row). `name` must
  /// be a string literal.
  uint64_t Open(const char* name, uint64_t parent, uint64_t request,
                uint32_t lane = 0);
  /// Closes a span opened on the calling thread.
  void Close(uint64_t id);

  /// Call only after every thread that recorded spans is quiescent.
  std::map<std::string, SpanSummary> Summarize() const;
  /// Writes every stored span as Chrome trace_event JSON.
  bool WriteChromeJson(const std::string& path) const;
  uint64_t stored() const;
  uint64_t dropped() const;

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t lane;
  };
  struct ThreadSpans {
    uint32_t slot = 0;
    std::vector<Span> spans;
    uint64_t dropped = 0;
  };

  ThreadSpans* Local();

  const uint64_t max_requests_;
  std::atomic<uint64_t> requests_{0};
  const uint64_t epoch_;
  mutable std::mutex mu_;  // guards threads_ (registration only)
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request, uint32_t lane = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Open(name, parent, request, lane)
                              : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace asset_bench

#endif  // ASSET_BENCH_E2E_SPANS_H_
