#ifndef ASSET_SERVER_SERVER_H_
#define ASSET_SERVER_SERVER_H_

/// \file server.h
/// The network front door: an epoll-based binary-protocol server that
/// multiplexes thousands of client connections onto one Database.
///
/// Architecture (docs/NETWORK.md has the wire format):
///  - One acceptor thread owns the listening socket. Each accepted
///    connection is counted against `max_connections` and handed to an
///    event-loop worker round-robin via an eventfd-signalled intake
///    queue.
///  - N worker threads each run a level-triggered epoll loop over the
///    connections they own. A connection never migrates, so all of its
///    state — receive buffer, send buffer, and its `ApiSession` with
///    every transaction the client has open — is single-threaded by
///    construction; the shared Database underneath is the
///    concurrency-safe layer.
///  - Reads are batched: a readable socket is drained to EAGAIN, every
///    complete frame in the buffer is decoded and dispatched, and the
///    replies go out in one flush. A client that pipelines K commands
///    pays one wakeup, not K.
///  - Write backpressure: replies queue in a per-connection send
///    buffer; past `write_buffer_limit` the server stops *reading* from
///    that connection until the buffer drains, so a slow reader
///    throttles itself instead of ballooning server memory.
///  - A malformed frame (bad length, undecodable command) gets a
///    best-effort error reply and the connection is closed — inside a
///    byte stream there is no safe resynchronization point.
///  - Disconnect or shutdown aborts the connection's open transactions
///    via ApiSession, so a yanked cable never leaks a lock-holding
///    transaction descriptor.
///
///  - Each dispatched command has one record in its connection's
///    request queue, from decode until its reply bytes leave the
///    socket. When it settles, it feeds the stage histograms, the
///    reply_flushed trace span and the slow log.
///  - Durable acks do not block the loop: a strict commit on a
///    file-backed database is applied at once and its reply held
///    unencoded in the request queue behind a durability gate (its
///    commit lsn), with every later reply of that connection held
///    behind it. After each epoll round the worker makes one
///    WaitDurable call up to the round's highest gate (leading or
///    following a WAL flush), then encodes the held replies in order,
///    so one fsync acks every commit of the round (docs/ROBUSTNESS.md,
///    "The ack rule").
///
/// Blocking caveat: a dispatched command runs on the worker thread, so
/// a long lock wait stalls the other connections of that worker for its
/// duration. Lock timeouts and deadlines bound the damage; more workers
/// shrink the blast radius.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace asset {
class Database;
}

namespace asset::server {

/// Monotonic counters of the server's life, rendered into the metrics
/// endpoint next to the kernel's (all relaxed atomics; absolute
/// precision is not worth cache-line traffic on the data path).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> txns_aborted_on_close{0};
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> backpressure_pauses{0};
  /// kBegin commands shed with kOverloaded by the admission controller.
  std::atomic<uint64_t> admission_shed{0};
  /// Commands rejected because their deadline expired before dispatch.
  std::atomic<uint64_t> deadline_expired{0};
  /// Commands whose kernel wait hit the deadline mid-flight (each
  /// aborted its transaction).
  std::atomic<uint64_t> deadline_timeout_aborts{0};
  std::atomic<int64_t> connections_active{0};
  /// Server-wide open transactions across every connection (the
  /// admission controller's load signal).
  std::atomic<int64_t> open_txns{0};

  /// Prometheus text exposition lines (asset_server_* family).
  std::string Render() const;
};

/// One listening endpoint over one Database.
class Server {
 public:
  /// Validated like Database::Options: Start() rejects nonsense via
  /// Validate() before touching a socket.
  struct Options {
    /// Listen address (IPv4 dotted quad).
    std::string host = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (see Server::port()).
    uint16_t port = 0;
    /// Event-loop threads.
    int workers = 2;
    /// Accepted-connection cap; excess accepts are closed immediately.
    size_t max_connections = 10000;
    /// Open transactions one connection may hold (ApiSession limit).
    size_t max_txns_per_conn = 64;
    /// Largest acceptable frame payload, both directions.
    size_t max_frame_bytes = 1 << 20;
    /// Pause reading from a connection whose unsent replies exceed
    /// this many bytes; resume when drained.
    size_t write_buffer_limit = 4u << 20;
    /// Close connections idle longer than this (0 = never).
    std::chrono::milliseconds idle_timeout{0};
    /// Admission control, class-aware: operations on already-running
    /// transactions (and commit/abort — finishing work *sheds* load)
    /// are always admitted; kBegin — the only command that *adds*
    /// load — is shed with a retryable kOverloaded reply when either
    /// overload signal trips. 0 disables that signal.
    ///
    /// Signal 1: server-wide open transactions at or above this cap.
    size_t admission_max_open_txns = 0;
    /// Signal 2: dispatch lag — time between a command's bytes
    /// arriving and the worker getting to it — above this bound. Lag
    /// grows when workers are stuck executing, which is exactly
    /// overload.
    std::chrono::milliseconds admission_max_lag{0};
    /// Base retry-after hint carried in a kOverloaded reply's i64
    /// value (the observed dispatch lag is added on top, so hints
    /// stretch as the server falls further behind).
    std::chrono::milliseconds overload_retry_hint{20};
    /// On Shutdown, how long to keep flushing already-queued replies
    /// before closing everyone.
    std::chrono::milliseconds drain_timeout{1000};
    /// Requests whose queue+execute+flush total meets this threshold
    /// are captured in the slow-request ring, drainable over the wire
    /// with kSlowLog (0 = slow-log disabled).
    std::chrono::milliseconds slow_request_threshold{0};
    /// Entries the slow-request ring retains (oldest overwritten).
    size_t slow_log_slots = 128;
    int listen_backlog = 1024;

    Status Validate() const;
  };

  /// Binds, listens, and spins up the acceptor and workers. The
  /// Database must outlive the returned Server.
  static Result<std::unique_ptr<Server>> Start(Database* db, Options options);

  /// Shutdown() if the caller has not already.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Graceful drain: stop accepting, give queued replies
  /// `drain_timeout` to flush, abort every connection's open
  /// transactions, join all threads. Idempotent.
  void Shutdown();

  /// The bound port (useful with Options::port = 0).
  uint16_t port() const { return port_; }

  const ServerStats& stats() const { return stats_; }

  /// The ops endpoint body: kernel metrics (Database::MetricsText)
  /// plus the asset_server_* family, the per-command stage-latency
  /// summaries, and the flight-recorder / slow-log state gauges. This
  /// is exactly what a kMetrics command returns over the wire.
  std::string MetricsText() const;

  /// The slow-request log as JSON — what a kSlowLog command returns.
  std::string SlowLogJson() const;

 private:
  struct Impl;

  Server() = default;

  std::unique_ptr<Impl> impl_;
  ServerStats stats_;
  uint16_t port_ = 0;
};

}  // namespace asset::server

#endif  // ASSET_SERVER_SERVER_H_
