#ifndef ASSET_BENCH_E2E_WORKLOADS_H_
#define ASSET_BENCH_E2E_WORKLOADS_H_

// Request shapes and population shared by the four workloads and the
// layer ledger. A shape is what one transaction of a workload does; the
// workloads run it concurrently end to end, the ledger replays it
// single-threaded at every layer boundary.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/random.h"
#include "common/result.h"
#include "core/database.h"

namespace asset_bench {

/// One data operation on population slot `slot`.
struct Op {
  enum Kind : uint8_t {
    kGet,  ///< read the object
    kPut,  ///< overwrite with Payload(arg)
    kAdd,  ///< counter += arg
    kRmw,  ///< read, add arg to the leading int64, write back
  };
  Kind kind = kGet;
  uint32_t slot = 0;
  int64_t arg = 0;
  /// nested_trip only: the subtransaction running this op aborts itself.
  bool abort = false;
};

struct Request {
  std::vector<Op> ops;
};

/// What the population's objects are.
enum class ObjectKind : uint8_t {
  kCounter,  ///< 16-byte kernel counter, initial value 0
  kBytes,    ///< 128-byte object; leading int64 is its balance
  kInt64,    ///< 8-byte int64
};

struct Shape {
  ObjectKind kind = ObjectKind::kBytes;
  uint32_t objects = 0;
  /// Leading int64 of every object at set-up.
  int64_t initial = 0;
  /// Draws the next transaction (slots in [0, objects)).
  std::function<Request(asset::Random&)> next;
};

/// The shape of workload `name`, as the ledger replays it (wire_durable
/// over the whole population rather than one connection's slice,
/// local_hotspot's transfers from thread 0's accounts).
Shape ShapeOf(const std::string& name);

/// wire_durable's object image: 128 bytes naming (conn, seq).
std::vector<uint8_t> DurablePayload(uint32_t conn, uint64_t seq);
/// The leading int64 of an object image (counter images: the value).
int64_t LeadingInt64(ObjectKind kind, const std::vector<uint8_t>& bytes);
/// `bytes` with `delta` added to its leading int64.
std::vector<uint8_t> AddToLeading(std::vector<uint8_t> bytes, int64_t delta);
/// The set-up image of an object of `kind` whose leading int64 is `v`.
std::vector<uint8_t> InitialImage(ObjectKind kind, int64_t v);

/// The options every workload opens its database with: defaults
/// (force_log_at_commit, kStrict) plus a 4 MiB log-bytes checkpoint
/// trigger, which truncates the WAL so memory stays flat over a run.
asset::Database::Options BaseOptions();

/// Creates `shape.objects` objects through committed session
/// transactions and returns their ids, slot order.
asset::Result<std::vector<asset::ObjectId>> Populate(asset::Database& db,
                                                     const Shape& shape);

/// Sum of the leading int64 over `oids`, read in committed chunks.
asset::Result<int64_t> SumObjects(asset::Database& db, ObjectKind kind,
                                  const std::vector<asset::ObjectId>& oids);

}  // namespace asset_bench

#endif  // ASSET_BENCH_E2E_WORKLOADS_H_
