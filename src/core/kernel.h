#ifndef ASSET_CORE_KERNEL_H_
#define ASSET_CORE_KERNEL_H_

/// \file kernel.h
/// Shared kernel state: the (now small) global kernel mutex, the per-TD
/// wait channel used for targeted wakeups, and the transaction-descriptor
/// table type.
///
/// The paper latches individual control structures (§4.1). The kernel is
/// organized the same way:
///
///  - The lock table is *sharded*: object descriptors are partitioned by
///    ObjectId hash into N independently-latched partitions
///    (LockManager). Lock acquisition, release, and delegation touch only
///    the shards of the objects involved.
///  - Each TransactionDescriptor carries its own wait channels: a
///    `lock_wait` WaitChannel for blocked lock requests and a
///    `lifecycle_cv` (paired with the global mutex) for blocked
///    Begin/Commit/Wait/Abort primitives. State changes wake only the
///    transactions registered as waiting — the releasing shard notifies
///    its recorded waiters, a terminating transaction notifies its
///    dependents and group members — instead of broadcasting to the
///    world.
///  - The global mutex `KernelSync::mu` still serializes the structures
///    that are inherently global: the TD table, the dependency graph,
///    commit-group evaluation, and permit-table mutation. Its condition
///    variable is used only for the destructor's thread drain.
///
/// Lock ordering (outermost first):
///   KernelSync::mu  ->  LockManager shard latch  ->  TD::lrds_mu
/// WaitChannel's internal mutex and the PermitTable's internal
/// shared_mutex are leaves: no other lock is ever taken while holding
/// them. Code holding a shard latch must never take the global mutex.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/ids.h"
#include "core/descriptors.h"

namespace asset {

/// The global kernel mutex. Guards the TD table, tombstones, dependency
/// graph, commit evaluation, and transaction lifecycle transitions. The
/// condition variable signals only the shutdown drain (live_threads
/// reaching zero); per-transaction blocking uses the channels on the TD
/// instead.
struct KernelSync {
  std::mutex mu;
  std::condition_variable cv;
  /// Transactions currently blocked inside LockManager::Acquire, i.e.
  /// the only transactions a new permit or delegation can admit. Guarded
  /// by `mu`; inserted where the waits-for edges are published, erased on
  /// every Acquire exit path. Permit/delegation wakeups notify exactly
  /// these channels instead of scanning the TD table. A blocked requester
  /// re-checks the lock once after registering here and before its first
  /// sleep, so a permit inserted before the registration cannot be lost.
  std::unordered_set<TransactionDescriptor*> lock_blocked;
  /// The wait-for cycle most recently resolved by the deadlock detector
  /// (victim included), captured at detection time for introspection:
  /// the detector resolves cycles immediately, so a later DumpState
  /// could never name the cycle from the live wait-for edges. Guarded
  /// by `mu`.
  std::vector<Tid> last_deadlock_cycle;
};

/// The chained-hash transaction table of §4.1 (TDs keyed by tid).
using TdTable = std::unordered_map<Tid, std::unique_ptr<TransactionDescriptor>>;

}  // namespace asset

#endif  // ASSET_CORE_KERNEL_H_
