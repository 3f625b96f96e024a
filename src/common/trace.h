#ifndef ASSET_COMMON_TRACE_H_
#define ASSET_COMMON_TRACE_H_

/// \file trace.h
/// The flight recorder: per-thread lock-free ring buffers of timestamped
/// kernel events, drainable as Chrome trace_event JSON.
///
/// Every instrumented layer (transaction lifecycle, lock waits, WAL
/// flushes, checkpointer) calls Emit(); when tracing is disabled the
/// whole call is one relaxed atomic load and a branch, so instrumented
/// hot paths cost effectively nothing in production. When enabled, an
/// event is written into the calling thread's private ring with relaxed
/// atomic stores under a per-slot seqlock — no shared mutable state, no
/// locks, no allocation (past the one-time ring creation per thread),
/// and no data races a sanitizer could object to. Rings overwrite their
/// oldest events when full; the drop count is surfaced through the
/// bound counter (KernelStats::trace_events_dropped).
///
/// Draining (Drain / DumpChromeJson) is racy-but-consistent: a slot
/// whose seqlock moved while it was being read is discarded rather than
/// reported half-written. Timestamps come from one process-wide
/// steady-clock origin, so events from different threads and different
/// recorders order correctly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/ids.h"

namespace asset {

/// Event vocabulary. One enum across all layers so a single trace shows
/// the whole composed story of an extended transaction.
enum class TraceEventType : uint8_t {
  // Transaction lifecycle (§2.1 primitives).
  kTxnInitiate = 0,  ///< tid registered; other = parent
  kTxnBegin = 1,     ///< tid started executing
  kTxnCommit = 2,    ///< tid committed; arg = commit-record lsn
  kTxnAbort = 3,     ///< tid aborted (physical abort finalized)
  // New primitives (§2.2).
  kDelegate = 4,     ///< tid -> other; arg = locks moved
  kPermit = 5,       ///< tid permits other (other == 0: any transaction)
  kDependency = 6,   ///< other becomes dependent on tid; arg = DependencyType
  // Lock manager.
  kLockWait = 7,     ///< tid waited on oid; other = first blocker tid;
                     ///< arg = LockWaitOutcome; dur_ns = wait duration
  // WAL / durability pipeline.
  kWalAppend = 8,    ///< record appended; arg = lsn; oid/tid from record
  kWalFsync = 9,     ///< flush batch; arg = target lsn; dur_ns = pwrite+fsync
  kCommitStall = 10, ///< strict-durability ack slept; arg = commit lsn
  // Checkpointer.
  kCheckpoint = 11,  ///< fuzzy checkpoint; arg = record lsn; dur_ns = duration
  // Network request stages. These carry *wire* trace context instead of
  // kernel ids: tid = trace id, other = span id, oid = command tag.
  kClientRpc = 12,      ///< client call; dur_ns = send-to-reply round trip
  kFrameDecoded = 13,   ///< server decoded the command frame
  kAdmission = 14,      ///< admission decision; arg = 0 admitted / 1 shed
  kRpcQueue = 15,       ///< dispatch queue span; dur_ns = time since arrival
  kRpcExecute = 16,     ///< kernel execute span; arg = kernel tid (if any)
  kReplyEnqueued = 17,  ///< reply bytes queued; arg = status code
  kReplyFlushed = 18,   ///< reply fully on the wire; arg = status code;
                        ///< dur_ns = time spent in the outbound buffer
};

/// True for the network request-stage events (kClientRpc..kReplyFlushed),
/// whose tid/other/oid fields carry wire trace context, not kernel ids.
inline bool IsNetworkTraceEvent(TraceEventType t) {
  return t >= TraceEventType::kClientRpc &&
         t <= TraceEventType::kReplyFlushed;
}

/// arg values of kLockWait events.
enum class LockWaitOutcome : uint8_t {
  kGranted = 0,
  kTimeout = 1,
  kDeadlock = 2,
  kAborted = 3,
};

const char* TraceEventTypeName(TraceEventType t);

/// One drained event (plain values; see FlightRecorder::Drain).
struct TraceEvent {
  int64_t ts_ns = 0;   ///< end-of-event time, process-wide steady clock
  int64_t dur_ns = 0;  ///< 0 for instant events
  uint32_t thread = 0; ///< recorder-assigned compact thread index
  TraceEventType type = TraceEventType::kTxnInitiate;
  Tid tid = kNullTid;
  Tid other = kNullTid;
  ObjectId oid = kNullObjectId;
  uint64_t arg = 0;
};

/// Controls the flight recorder (TransactionManager::Options::trace).
struct TraceOptions {
  /// Master switch. Off: Emit() is one relaxed load + branch.
  bool enabled = false;
  /// Slots per per-thread ring, rounded up to a power of two. A full
  /// ring overwrites its oldest events.
  size_t ring_slots = 8192;
};

/// Per-thread ring-buffer event recorder. One instance per kernel.
class FlightRecorder {
 public:
  explicit FlightRecorder(TraceOptions options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Runtime toggle (e.g. flip tracing on for an incident window).
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds on the process-wide steady clock all events share.
  static int64_t NowNs();

  /// Records one event, timestamped now. Near-zero cost when disabled.
  void Emit(TraceEventType type, Tid tid, Tid other = kNullTid,
            ObjectId oid = kNullObjectId, uint64_t arg = 0,
            int64_t dur_ns = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    EmitAlways(type, tid, other, oid, arg, dur_ns);
  }

  /// Counter bumped once per overwritten (lost) event; may be null.
  void BindDroppedCounter(std::atomic<uint64_t>* counter) {
    dropped_ = counter;
  }

  /// Snapshot of every retained event across all threads, sorted by
  /// timestamp. Safe concurrently with emitters; slots caught
  /// mid-write are skipped.
  std::vector<TraceEvent> Drain() const;

  /// Drain() rendered as Chrome trace_event JSON ("traceEvents" array
  /// object), loadable in chrome://tracing or Perfetto.
  std::string DumpChromeJson() const;

  /// Number of per-thread rings created so far.
  size_t ring_count() const;

  /// Slots per ring (after power-of-two rounding).
  size_t ring_slots() const { return slots_; }

 private:
  /// One event slot. All fields are relaxed atomics guarded by a
  /// seqlock: `seq` is odd while the owning thread rewrites the slot.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ts_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<uint64_t> type{0};
    std::atomic<uint64_t> tid{0};
    std::atomic<uint64_t> other{0};
    std::atomic<uint64_t> oid{0};
    std::atomic<uint64_t> arg{0};
  };

  /// One thread's private ring. Only the owning thread writes; any
  /// thread may read (Drain).
  struct Ring {
    Ring(uint32_t index, size_t slots)
        : thread_index(index), slots(slots) {}
    const uint32_t thread_index;
    std::atomic<uint64_t> head{0};  ///< events ever written
    std::vector<Slot> slots;
  };

  void EmitAlways(TraceEventType type, Tid tid, Tid other, ObjectId oid,
                  uint64_t arg, int64_t dur_ns);

  /// The calling thread's ring for this recorder (thread-local cached;
  /// created under mu_ on first use).
  Ring* GetRing();

  const uint64_t id_;    ///< process-unique, never reused
  const size_t slots_;   ///< power of two
  std::atomic<bool> enabled_;
  std::atomic<uint64_t>* dropped_ = nullptr;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace asset

#endif  // ASSET_COMMON_TRACE_H_
