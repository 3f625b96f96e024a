#ifndef ASSET_CLIENT_CLIENT_H_
#define ASSET_CLIENT_CLIENT_H_

/// \file client.h
/// Blocking client for the ASSET wire protocol.
///
/// One `Client` is one TCP connection and one server-side session; it
/// is single-threaded like the session it drives. Two calling styles
/// share the connection state:
///
///  - RPC: `Call(cmd)` sends one command and blocks for its reply.
///    The typed wrappers (Begin/Put/Commit/...) are sugar over it.
///  - Pipelining: `Send(cmd)` stages frames locally, `Flush()` writes
///    them in one syscall burst, and `Receive()` is then called once
///    per staged command, in order (the server replies strictly in
///    request order). This is how a round trip is amortized over a
///    whole Begin/Write/Commit batch — see `kCurrentTxn`.
///
/// Robustness (docs/ROBUSTNESS.md):
///
///  - Every socket wait is bounded: connects by `connect_timeout`,
///    reads and writes by `io_timeout`. A stalled or silent peer
///    yields kTimedOut instead of hanging the caller forever.
///  - A transport failure (timeout, reset, EOF) marks the connection
///    dead; with `auto_reconnect` the next Call() transparently
///    re-dials and re-handshakes. Reconnection restores the
///    *transport*, not the session: the server aborted every
///    transaction the old session had open, so callers must restart
///    in-flight work from Begin.
///  - Only provably-unexecuted work is retried automatically: a
///    kOverloaded reply (the server shed the command before executing
///    it) and a failed connect (nothing was ever sent). Both back off
///    exponentially with jitter, honoring the server's retry-after
///    hint. A mid-flight transport error is *not* retried — the
///    command may have executed — and surfaces to the caller.
///
/// Destruction closes the socket; the server aborts whatever
/// transactions the session still had open.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/command.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"

namespace asset::client {

class Client {
 public:
  struct Options {
    /// Largest reply frame payload this client will accept.
    size_t max_frame_bytes = 1 << 20;
    /// Skip the kHello exchange in Connect (only for talking to an
    /// endpoint that does not require it; the stock server does).
    bool skip_handshake = false;
    /// Bound on establishing one TCP connection (0 = OS default,
    /// which can be minutes — prefer a real bound).
    std::chrono::milliseconds connect_timeout{5000};
    /// Bound on every individual socket wait while sending a request
    /// or awaiting a reply; 0 = wait forever (pre-robustness
    /// behavior, only for debugging).
    std::chrono::milliseconds io_timeout{5000};
    /// Automatic retries of retryable failures (kOverloaded replies,
    /// failed connects); 0 disables retry.
    int max_retries = 3;
    /// Exponential backoff between retries: attempt k sleeps
    /// base * 2^k (full jitter applied), never more than backoff_max,
    /// never less than the server's retry-after hint.
    std::chrono::milliseconds backoff_base{10};
    std::chrono::milliseconds backoff_max{500};
    /// Re-dial and re-handshake on the next Call() after the
    /// transport died. See the session-loss caveat above.
    bool auto_reconnect = true;
    /// Deadline budget stamped onto every command Send() stages that
    /// does not already carry one (0 = stamp nothing).
    uint32_t default_deadline_ms = 0;
    /// When set and enabled, every command is stamped with a wire
    /// trace context (one trace id per logical Call, a fresh span id
    /// per attempt) and each reply emits a kClientRpc round-trip span
    /// into this recorder. Stamping starts once the handshake finished.
    /// The recorder must outlive the client.
    FlightRecorder* trace_recorder = nullptr;

    Status Validate() const;
  };

  /// What the robustness machinery has done so far (single-threaded,
  /// like the client).
  struct Stats {
    uint64_t retries = 0;          ///< Calls re-sent after kOverloaded.
    uint64_t reconnects = 0;       ///< Transports re-established.
    uint64_t overloaded_seen = 0;  ///< kOverloaded replies received.
    uint64_t timeouts = 0;         ///< Socket waits that hit io/connect timeout.
  };

  /// Connects (retrying failed dials per `max_retries`) and, unless
  /// skipped, completes the version handshake.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 Options options);
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port) {
    return Connect(host, port, Options{});
  }

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Pipelined core -------------------------------------------------

  /// Stages one command frame in the local send buffer (stamping
  /// default_deadline_ms if the command carries no deadline).
  void Send(const api::Command& cmd);
  /// Writes every staged frame to the socket. kTimedOut if a write
  /// stalls past io_timeout (the connection is then dead).
  Status Flush();
  /// Blocks (bounded by io_timeout per wait) for the next reply
  /// frame. Call exactly once per Send() that was flushed, in order.
  Result<api::Reply> Receive();
  /// Send + Flush + Receive, plus the retry loop: a kOverloaded reply
  /// backs off and re-sends up to max_retries times before being
  /// returned to the caller.
  Result<api::Reply> Call(const api::Command& cmd);

  // --- Typed RPC sugar ------------------------------------------------

  Result<Tid> Begin();
  Status Commit(Tid t = api::kCurrentTxn);
  Status Abort(Tid t = api::kCurrentTxn);
  Result<ObjectId> Create(const std::vector<uint8_t>& bytes,
                          Tid t = api::kCurrentTxn);
  Result<std::vector<uint8_t>> Get(ObjectId oid, Tid t = api::kCurrentTxn);
  Status Put(ObjectId oid, const std::vector<uint8_t>& bytes,
             Tid t = api::kCurrentTxn);
  Status Delete(ObjectId oid, Tid t = api::kCurrentTxn);
  Result<ObjectId> CreateCounter(int64_t initial, Tid t = api::kCurrentTxn);
  Status Add(ObjectId oid, int64_t delta, Tid t = api::kCurrentTxn);
  Result<int64_t> GetCounter(ObjectId oid, Tid t = api::kCurrentTxn);
  Status Ping();
  Status Checkpoint();
  /// The server's metrics text (kernel + asset_server_* families).
  Result<std::string> Metrics();
  /// The server's flight-recorder dump as Chrome trace_event JSON.
  Result<std::string> DumpTrace();
  /// The server's slow-request log as JSON.
  Result<std::string> SlowLog();

  /// Frames staged by Send() and not yet flushed.
  size_t staged() const { return staged_; }
  /// False after a transport failure until the next successful
  /// (re)connect.
  bool connected() const { return fd_ >= 0; }
  const Stats& stats() const { return stats_; }
  /// Protocol version the server declared in the handshake (0 before
  /// the first successful handshake).
  uint16_t server_version() const { return server_version_; }
  /// Trace id of the most recently stamped command (0 if none was
  /// ever stamped) — lets a caller correlate its last workload with a
  /// drained trace.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  Client(const std::string& host, uint16_t port, Options options);

  /// One bounded nonblocking dial + optional handshake; fills fd_.
  Status DialOnce();
  /// Reconnects (with backoff retries) if the transport is dead.
  Status EnsureConnected();
  /// Closes the socket and forgets buffered state; the session it
  /// backed is gone.
  void DropConnection();
  /// Bounded poll for `events` on fd_; kTimedOut on expiry.
  Status WaitFor(short events, const char* what);
  /// Reads from the socket until `need` bytes are buffered.
  Status FillTo(size_t need);
  /// Full-jitter exponential backoff sleep for retry `attempt`,
  /// at least `hint_ms` (the server's retry-after hint) long.
  void Backoff(int attempt, int64_t hint_ms);
  /// True once trace stamping may happen: a recorder is bound and
  /// enabled, and the handshake finished.
  bool TracingOn() const {
    return options_.trace_recorder != nullptr &&
           options_.trace_recorder->enabled() && server_version_ != 0;
  }
  /// A fresh nonzero trace/span id (rng-seeded so concurrent clients
  /// do not collide, counter-mixed so one client never repeats).
  uint64_t NewTraceId();

  /// One sent-but-unanswered command, matched FIFO to replies (the
  /// server answers strictly in request order).
  struct Inflight {
    uint64_t trace_id = 0;  ///< 0 = untraced (no kClientRpc emitted)
    uint64_t span_id = 0;
    uint8_t tag = 0;
    int64_t send_ns = 0;
  };

  std::string host_;
  uint16_t port_;
  int fd_ = -1;
  Options options_;
  Stats stats_;
  std::minstd_rand jitter_rng_;
  std::vector<uint8_t> send_buf_;
  size_t staged_ = 0;
  std::vector<uint8_t> recv_buf_;
  size_t recv_off_ = 0;
  std::deque<Inflight> inflight_;
  bool ever_connected_ = false;  ///< a dial once succeeded (reconnect stat)
  uint16_t server_version_ = 0;
  uint64_t trace_counter_ = 0;
  uint64_t last_trace_id_ = 0;
};

}  // namespace asset::client

#endif  // ASSET_CLIENT_CLIENT_H_
