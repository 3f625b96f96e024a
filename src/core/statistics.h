#ifndef ASSET_CORE_STATISTICS_H_
#define ASSET_CORE_STATISTICS_H_

/// \file statistics.h
/// Kernel counters and latency histograms. All counters are atomics so
/// the hot paths can bump them without the kernel mutex; readers take
/// racy-but-consistent-enough snapshots.
///
/// The counter list is a single X-macro: the struct fields, the
/// Snapshot fields, snapshot(), Reset(), and ToString() are all
/// generated from ASSET_KERNEL_COUNTERS, so a new counter is added in
/// exactly one place and cannot drift out of any of them. Histograms
/// follow the same pattern via ASSET_KERNEL_HISTOGRAMS.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/histogram.h"

namespace asset {

/// Every kernel counter: X(group, field, label). `group` and `label`
/// name the counter in ToString()/MetricsText() output ("group{label=N}"
/// and "asset_group_label N"); `field` is the C++ member. Entries with
/// the same group must stay contiguous.
#define ASSET_KERNEL_COUNTERS(X)                                           \
  X(txns, txns_initiated, initiated)                                       \
  X(txns, txns_begun, begun)                                               \
  X(txns, txns_committed, committed)                                       \
  X(txns, txns_aborted, aborted)                                           \
  X(txns, group_commits, group_commits)                                    \
  /* Targeted lifecycle notifications: how many times a status            \
     transition woke one specific transaction's lifecycle channel. */      \
  X(txns, txn_wakeups, wakeups)                                            \
  X(locks, locks_granted, granted)                                         \
  X(locks, lock_waits, waits)                                              \
  X(locks, lock_suspensions, suspensions)                                  \
  X(locks, deadlocks, deadlocks)                                           \
  X(locks, lock_timeouts, timeouts)                                        \
  /* Targeted lock notifications: waiters woken by a release,             \
     delegation, or suspension on the object they are blocked on. */       \
  X(locks, lock_wakeups, wakeups)                                          \
  /* Rescans of the grant decision by a blocked acquirer after a wakeup   \
     (each is one trip around the §4.2 "retry from step 1" loop). */       \
  X(locks, lock_wait_retries, wait_retries)                                \
  X(permits, permits_inserted, inserted)                                   \
  X(permits, permits_derived, derived)                                     \
  X(permits, permit_checks, checks)                                        \
  X(permits, permit_hits, hits)                                            \
  /* Permit insertions that swept the TD table to wake blocked lock       \
     waiters (a new permit can admit any of them). */                      \
  X(permits, permit_broadcasts, broadcasts)                                \
  X(delegation, delegations, calls)                                        \
  X(delegation, locks_delegated, locks)                                    \
  X(deps, dependencies_formed, formed)                                     \
  X(deps, dependency_cycles_rejected, cycles_rejected)                     \
  X(data, reads, reads)                                                    \
  X(data, writes, writes)                                                  \
  X(data, increments, increments)                                          \
  X(data, undo_installs, undo_installs)                                    \
  /* WAL / durability-pipeline economy. The log bumps appends, fsyncs,    \
     and records_flushed through the WalStatsSink the                     \
     TransactionManager binds; commit_stalls is bumped by the commit      \
     path when a strict-durability ack found its record not yet durable   \
     and had to lead or follow a flush. Fewer fsyncs than commits ==      \
     group commit is working. */                                          \
  X(wal, wal_appends, appends)                                             \
  X(wal, wal_fsyncs, fsyncs)                                               \
  X(wal, wal_records_flushed, records_flushed)                             \
  X(wal, commit_stalls, commit_stalls)                                     \
  /* Checkpoints completed, and TruncatePrefix                             \
     activity: calls that dropped at least one record, and the records    \
     physically dropped across all of them. */                             \
  X(checkpoint, checkpoints, checkpoints)                                  \
  X(checkpoint, wal_truncations, truncations)                              \
  X(checkpoint, wal_records_truncated, records_truncated)                  \
  /* Flight-recorder events lost to ring overwrite (see trace.h). */       \
  X(trace, trace_events_dropped, events_dropped)

/// Every kernel latency histogram: X(field). Recorded in nanoseconds.
#define ASSET_KERNEL_HISTOGRAMS(X)                                         \
  /* CommitTxn entry to durable ack, or to the durability-gate             \
     hand-off of a gated commit (successful commits only). */              \
  X(commit_latency)                                                        \
  /* Lock-manager block to wake, blocking acquires only. */                \
  X(lock_wait_latency)                                                     \
  /* pwrite+fsync of one WAL flush batch. */                               \
  X(fsync_latency)                                                         \
  /* One checkpoint, end to end. */                                        \
  X(checkpoint_latency)

/// Monotonic event counters + latency histograms for the kernel.
struct KernelStats {
#define ASSET_DECLARE_COUNTER(group, field, label) \
  std::atomic<uint64_t> field{0};
  ASSET_KERNEL_COUNTERS(ASSET_DECLARE_COUNTER)
#undef ASSET_DECLARE_COUNTER

#define ASSET_DECLARE_HISTOGRAM(field) LatencyHistogram field;
  ASSET_KERNEL_HISTOGRAMS(ASSET_DECLARE_HISTOGRAM)
#undef ASSET_DECLARE_HISTOGRAM

  /// Plain-value copy of every counter and histogram.
  struct Snapshot {
#define ASSET_SNAPSHOT_COUNTER(group, field, label) uint64_t field = 0;
    ASSET_KERNEL_COUNTERS(ASSET_SNAPSHOT_COUNTER)
#undef ASSET_SNAPSHOT_COUNTER

#define ASSET_SNAPSHOT_HISTOGRAM(field) LatencyHistogram::Snapshot field;
    ASSET_KERNEL_HISTOGRAMS(ASSET_SNAPSHOT_HISTOGRAM)
#undef ASSET_SNAPSHOT_HISTOGRAM

    /// Batching ratio: records flushed per fsync (0 when no fsync ran).
    double wal_records_per_fsync() const {
      return wal_fsyncs == 0
                 ? 0.0
                 : static_cast<double>(wal_records_flushed) /
                       static_cast<double>(wal_fsyncs);
    }

    std::string ToString() const;
  };

  Snapshot snapshot() const;
  void Reset();
};

}  // namespace asset

#endif  // ASSET_CORE_STATISTICS_H_
