#ifndef ASSET_BENCH_E2E_LEDGER_H_
#define ASSET_BENCH_E2E_LEDGER_H_

// The layer ledger: one workload's request shape, replayed
// single-threaded at every layer boundary, so the difference between
// adjacent rows is what the layer between them costs.
//
//   store     ObjectStore calls only (no transaction)
//   kernel    TransactionManager session transaction
//   database  the Database facade's Txn handle
//   api       command codec round trip + ApiSession::Execute, no socket
//   wire      Client -> loopback Server, in-memory database
//   wire_file the same over a file-backed database under kStrict
//   flat      models::RunNestedRoot with every op in the root
//   nested    the same with every op in its own RunSubtransaction
//
// Every row but wire_file runs on one in-memory Database; store and
// kernel are reached through the DatabaseInternal seam.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "harness.h"

namespace asset_bench {

struct LedgerRow {
  std::string name;
  /// Median wall time per transaction.
  double us_per_txn = 0;
  uint64_t samples = 0;
};

struct Ledger {
  std::vector<LedgerRow> rows;
  /// Per transaction of the replayed stream: data ops, and commands
  /// (data ops + Begin + Commit).
  double ops_per_txn = 0;
  double cmds_per_txn = 0;
  /// api row: median codec time (encode + decode, both directions).
  double codec_us_per_txn = 0;
  /// wire row: median time in Client::Flush and in Client::Receive.
  double flush_us_per_txn = 0;
  double receive_us_per_txn = 0;
  /// wire row: server bytes and frames (both directions).
  double server_bytes_per_txn = 0;
  double server_frames_per_txn = 0;
  /// kernel row: buffer-pool misses (page reads) and dirty write-backs
  /// (page writes).
  double page_reads_per_txn = 0;
  double page_writes_per_txn = 0;

  /// The row's µs per transaction (0 if absent).
  double Row(const std::string& name) const;
};

/// Runs every row for `row_seconds` of timed transactions.
asset::Result<Ledger> RunLedger(const std::string& workload,
                                const Config& cfg, double row_seconds);

}  // namespace asset_bench

#endif  // ASSET_BENCH_E2E_LEDGER_H_
