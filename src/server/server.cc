#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/command.h"
#include "api/session.h"
#include "api/wire.h"
#include "common/histogram.h"
#include "common/sys_hooks.h"
#include "common/trace.h"
#include "core/database_internal.h"

namespace asset::server {

namespace {

/// Bytes read from one socket per readiness event before the loop
/// moves on (level-triggered epoll re-reports leftover data, so this
/// bounds per-connection monopoly, not total throughput).
constexpr size_t kReadBudget = 256 * 1024;
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kMaxEpollEvents = 256;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

int SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int64_t Ns(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Appends one single-sample Prometheus family: its HELP, TYPE and
/// sample lines.
template <typename T>
void AppendFamily(std::string* out, const char* type, const char* name,
                  const char* help, T value) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

}  // namespace

std::string ServerStats::Render() const {
  std::string out;
  auto counter = [&out](const char* name, const char* help,
                        const std::atomic<uint64_t>& v) {
    AppendFamily(&out, "counter", name, help,
                 v.load(std::memory_order_relaxed));
  };
  counter("asset_server_connections_accepted_total", "Connections accepted.",
          connections_accepted);
  counter("asset_server_connections_rejected_total",
          "Connections refused at the max_connections cap.",
          connections_rejected);
  counter("asset_server_connections_closed_total", "Connections closed.",
          connections_closed);
  counter("asset_server_frames_in_total", "Request frames decoded.",
          frames_in);
  counter("asset_server_frames_out_total", "Reply frames sent.", frames_out);
  counter("asset_server_bytes_in_total", "Bytes received.", bytes_in);
  counter("asset_server_bytes_out_total", "Bytes sent.", bytes_out);
  counter("asset_server_protocol_errors_total",
          "Malformed or oversized frames (each closes its connection).",
          protocol_errors);
  counter("asset_server_txns_aborted_on_close_total",
          "Open transactions aborted because their connection went away.",
          txns_aborted_on_close);
  counter("asset_server_idle_closed_total", "Connections closed as idle.",
          idle_closed);
  counter("asset_server_backpressure_pauses_total",
          "Times reading was paused because a send buffer hit its limit.",
          backpressure_pauses);
  counter("asset_server_admission_shed_total",
          "Begin commands shed with kOverloaded by admission control.",
          admission_shed);
  counter("asset_server_deadline_expired_total",
          "Commands rejected because their deadline expired before dispatch.",
          deadline_expired);
  counter("asset_server_deadline_timeout_aborts_total",
          "Commands whose kernel wait hit the deadline (each aborted its "
          "transaction).",
          deadline_timeout_aborts);
  AppendFamily(&out, "gauge", "asset_server_connections_active",
               "Currently open connections.",
               connections_active.load(std::memory_order_relaxed));
  AppendFamily(&out, "gauge", "asset_server_open_txns",
               "Open transactions across all connections.",
               open_txns.load(std::memory_order_relaxed));
  return out;
}

Status Server::Options::Validate() const {
  if (workers <= 0) {
    return Status::InvalidArgument("server: workers must be > 0");
  }
  if (max_connections == 0) {
    return Status::InvalidArgument("server: max_connections must be > 0");
  }
  if (max_txns_per_conn == 0) {
    return Status::InvalidArgument("server: max_txns_per_conn must be > 0");
  }
  if (max_frame_bytes < 16) {
    return Status::InvalidArgument(
        "server: max_frame_bytes too small to hold any command");
  }
  if (max_frame_bytes > (64u << 20)) {
    return Status::InvalidArgument("server: max_frame_bytes above 64 MiB");
  }
  if (write_buffer_limit < max_frame_bytes) {
    return Status::InvalidArgument(
        "server: write_buffer_limit must hold at least one frame");
  }
  if (idle_timeout.count() < 0 || drain_timeout.count() < 0) {
    return Status::InvalidArgument("server: negative timeout");
  }
  if (admission_max_lag.count() < 0) {
    return Status::InvalidArgument("server: negative admission_max_lag");
  }
  if (overload_retry_hint.count() < 0) {
    return Status::InvalidArgument("server: negative overload_retry_hint");
  }
  if (slow_request_threshold.count() < 0) {
    return Status::InvalidArgument("server: negative slow_request_threshold");
  }
  if (slow_log_slots == 0) {
    return Status::InvalidArgument("server: slow_log_slots must be > 0");
  }
  if (listen_backlog <= 0) {
    return Status::InvalidArgument("server: listen_backlog must be > 0");
  }
  return Status::OK();
}

struct Server::Impl {
  /// One dispatched command, from decode to settle. It waits in its
  /// connection's `requests` queue in reply order. Its reply is encoded
  /// into `out` once no durability gate holds it, and the record is
  /// settled once those bytes have left the socket. A slow one is kept
  /// as is in the slow-request ring (kSlowLog's payload).
  struct Request {
    /// `out_end` of a record whose reply is not encoded yet.
    static constexpr uint64_t kHeld = UINT64_MAX;

    uint64_t trace_id = 0;    ///< 0 = untraced (no events, still timed)
    uint64_t span_id = 0;
    uint64_t kernel_tid = 0;  ///< resolved kernel tid, if any
    uint8_t tag = 0;          ///< CommandType; 0 = protocol error (untimed)
    uint8_t code = 0;         ///< StatusCode of the reply, set at encode
    bool shed = false;        ///< a Begin shed by admission: no execute
    int64_t queue_ns = 0;     ///< batch arrival to dispatch
    int64_t execute_ns = 0;   ///< dispatch to `enqueued`
    int64_t flush_ns = 0;     ///< set at settle: `enqueued` to bytes sent
    int64_t ts_ns = 0;        ///< set when captured as slow: trace clock
    /// The post-execute stamp: queued, or held behind a gate.
    std::chrono::steady_clock::time_point enqueued;
    api::Reply reply;          ///< moved out when encoded
    Lsn gate = kNullLsn;       ///< durability gate; kNullLsn = none
    uint64_t out_end = kHeld;  ///< out_total_queued after its frame
  };

  /// Per-command-tag stage latencies (recorded for every request,
  /// traced or not; Record is three relaxed fetch_adds).
  struct StageHistograms {
    LatencyHistogram queue;
    LatencyHistogram execute;
    LatencyHistogram flush;
  };

  /// One client connection, owned by exactly one worker.
  struct Conn {
    explicit Conn(int fd_in, Database* db, size_t max_txns)
        : fd(fd_in),
          session(db, api::ApiSession::Limits{max_txns, true}) {}

    int fd;
    api::ApiSession session;
    /// Received-but-unparsed bytes; `in_off` is the consumed prefix
    /// (compacted lazily so frame processing is not O(n^2)).
    std::vector<uint8_t> in;
    size_t in_off = 0;
    /// Encoded-but-unsent reply bytes; `out_off` is the sent prefix.
    std::vector<uint8_t> out;
    size_t out_off = 0;
    bool read_paused = false;
    /// Close once every reply is sent (set after a protocol error).
    bool closing = false;
    std::chrono::steady_clock::time_point last_activity;
    /// When the bytes of the batch being dispatched were received;
    /// anchors deadline budgets and measures dispatch lag, so commands
    /// queued behind a slow batch-mate are charged for the wait.
    std::chrono::steady_clock::time_point batch_arrival;
    /// Every dispatched command whose reply has not fully left the
    /// socket, in reply order. The held ones (not yet encoded) are
    /// always a suffix, headed by a gated one; ReleaseGated encodes
    /// them at the end of the round. Cumulative byte counters survive
    /// `out` compaction.
    std::deque<Request> requests;
    uint64_t out_total_queued = 0;
    uint64_t out_total_sent = 0;

    size_t pending_out() const { return out.size() - out_off; }
    size_t pending_in() const { return in.size() - in_off; }
    bool holding() const {
      return !requests.empty() && requests.back().out_end == Request::kHeld;
    }
  };

  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex intake_mu;
    std::vector<int> intake;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    /// Highest durability gate held this round (kNullLsn = none), and
    /// the connections holding replies behind a gate.
    Lsn max_gate = kNullLsn;
    std::vector<int> gated;
  };

  Database* db = nullptr;
  /// The database's WAL, for resolving durability gates.
  LogManager* log = nullptr;
  Options options;
  ServerStats* stats = nullptr;
  /// The kernel's flight recorder; server stage spans land in the same
  /// rings as lock/WAL events, so one dump shows both layers.
  FlightRecorder* rec = nullptr;
  /// Indexed by raw CommandType (1..kSlowLog).
  static constexpr size_t kNumTags =
      static_cast<size_t>(api::CommandType::kSlowLog) + 1;
  StageHistograms stage_hist[kNumTags];
  /// Slow-request ring (any worker may append; kSlowLog reads).
  mutable std::mutex slow_mu;
  std::vector<Request> slow_ring;
  size_t slow_next = 0;
  uint64_t slow_total = 0;
  int listen_fd = -1;
  int acceptor_wake_fd = -1;
  std::thread acceptor;
  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<bool> stop{false};
  std::atomic<bool> shut_down{false};

  ~Impl() {
    if (listen_fd >= 0) close(listen_fd);
    if (acceptor_wake_fd >= 0) close(acceptor_wake_fd);
    for (auto& w : workers) {
      if (w->epoll_fd >= 0) close(w->epoll_fd);
      if (w->wake_fd >= 0) close(w->wake_fd);
    }
  }

  // --- Acceptor ------------------------------------------------------

  void AcceptorMain() {
    size_t next_worker = 0;
    struct pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {acceptor_wake_fd, POLLIN, 0};
    while (!stop.load(std::memory_order_acquire)) {
      int n = SysPoll(fds, 2, 1000);
      if (n <= 0) continue;
      if (fds[1].revents != 0) continue;  // woken for shutdown; loop checks
      for (;;) {
        int fd = accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN or transient error: back to poll
        int64_t active =
            stats->connections_active.load(std::memory_order_relaxed);
        if (active >= static_cast<int64_t>(options.max_connections)) {
          stats->connections_rejected.fetch_add(1, std::memory_order_relaxed);
          close(fd);
          continue;
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        stats->connections_accepted.fetch_add(1, std::memory_order_relaxed);
        stats->connections_active.fetch_add(1, std::memory_order_relaxed);
        Worker& w = *workers[next_worker];
        next_worker = (next_worker + 1) % workers.size();
        {
          std::lock_guard<std::mutex> g(w.intake_mu);
          w.intake.push_back(fd);
        }
        uint64_t one64 = 1;
        ssize_t ignored = write(w.wake_fd, &one64, sizeof(one64));
        (void)ignored;
      }
    }
  }

  // --- Worker event loop ---------------------------------------------

  void WorkerMain(Worker* w) {
    epoll_event events[kMaxEpollEvents];
    auto last_idle_sweep = std::chrono::steady_clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      int timeout_ms = options.idle_timeout.count() > 0 ? 100 : 1000;
      HandleEvents(w, events, epoll_wait(w->epoll_fd, events, kMaxEpollEvents,
                                         timeout_ms));
      if (w->max_gate != kNullLsn) {
        // Commands that arrived while the round ran join its flush.
        HandleEvents(w, events,
                     epoll_wait(w->epoll_fd, events, kMaxEpollEvents, 0));
      }
      ReleaseGated(w);
      if (options.idle_timeout.count() > 0) {
        auto now = std::chrono::steady_clock::now();
        if (now - last_idle_sweep >= options.idle_timeout / 4 ||
            now - last_idle_sweep >= std::chrono::milliseconds(100)) {
          SweepIdle(w, now);
          last_idle_sweep = now;
        }
      }
    }
    DrainAndCloseAll(w);
  }

  /// Serves one epoll_wait's worth of readiness events.
  void HandleEvents(Worker* w, const epoll_event* events, int n) {
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == w->wake_fd) {
        uint64_t drain;
        while (read(w->wake_fd, &drain, sizeof(drain)) > 0) {
        }
        AdoptIntake(w);
        continue;
      }
      auto it = w->conns.find(events[i].data.fd);
      if (it == w->conns.end()) continue;
      Conn* c = it->second.get();
      uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(w, c);
        continue;
      }
      bool alive = true;
      if ((ev & EPOLLOUT) != 0) alive = HandleWrite(w, c);
      if (alive && (ev & EPOLLIN) != 0) HandleRead(w, c);
    }
  }

  void AdoptIntake(Worker* w) {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> g(w->intake_mu);
      fds.swap(w->intake);
    }
    for (int fd : fds) {
      auto conn = std::make_unique<Conn>(fd, db, options.max_txns_per_conn);
      conn->last_activity = std::chrono::steady_clock::now();
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        close(fd);
        stats->connections_active.fetch_sub(1, std::memory_order_relaxed);
        stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      w->conns.emplace(fd, std::move(conn));
    }
  }

  void UpdateInterest(Worker* w, Conn* c) {
    uint32_t want = 0;
    if (!c->read_paused && !c->closing) want |= EPOLLIN;
    if (c->pending_out() > 0) want |= EPOLLOUT;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c->fd;
    epoll_ctl(w->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void HandleRead(Worker* w, Conn* c) {
    size_t budget = kReadBudget;
    bool eof = false;
    while (budget > 0) {
      size_t chunk = std::min(budget, kReadChunk);
      size_t base = c->in.size();
      c->in.resize(base + chunk);
      ssize_t got = SysRecv(c->fd, c->in.data() + base, chunk, 0);
      if (got > 0) {
        c->in.resize(base + static_cast<size_t>(got));
        stats->bytes_in.fetch_add(static_cast<uint64_t>(got),
                                  std::memory_order_relaxed);
        budget -= static_cast<size_t>(got);
        if (static_cast<size_t>(got) < chunk) break;  // socket drained
        continue;
      }
      c->in.resize(base);
      if (got == 0) {
        eof = true;  // peer closed; dispatch what we have, then close
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // drained
      } else if (errno == EINTR) {
        continue;
      } else {
        eof = true;
      }
      break;
    }
    c->last_activity = std::chrono::steady_clock::now();
    c->batch_arrival = c->last_activity;
    ProcessFrames(w, c);
    if (eof && !c->closing) {
      // Whatever remains buffered is (at most) a truncated frame; the
      // peer is gone, so flush nothing more and abort its sessions.
      // Held replies are dropped: their commits stand, unacked.
      CloseConn(w, c);
      return;
    }
    if (w->conns.count(c->fd) == 0) return;  // closed during processing
    // A connection holding gated replies is flushed by ReleaseGated at
    // the end of this round: one send for all of its replies.
    if (!c->holding()) FlushOut(w, c);
  }

  /// Decodes and dispatches every complete frame in `c->in`, queueing
  /// replies into `c->out` (one flush at the end = batched pipeline).
  void ProcessFrames(Worker* w, Conn* c) {
    while (!c->closing) {
      std::span<const uint8_t> buffered(c->in.data() + c->in_off,
                                        c->pending_in());
      std::span<const uint8_t> payload;
      api::FrameSplit split =
          api::TrySplitFrame(buffered, options.max_frame_bytes, &payload);
      if (split == api::FrameSplit::kNeedMore) break;
      if (split == api::FrameSplit::kOversized) {
        RejectFrame(w, c, Status::InvalidArgument(
                              "frame: length 0 or above max_frame_bytes"));
        break;
      }
      auto cmd = api::DecodeCommand(payload);
      c->in_off += api::kFrameHeaderBytes + payload.size();
      stats->frames_in.fetch_add(1, std::memory_order_relaxed);
      if (!cmd.ok()) {
        RejectFrame(w, c, cmd.status());
        break;
      }
      Request r;
      r.trace_id = cmd->trace_id;
      r.span_id = cmd->span_id;
      r.tag = static_cast<uint8_t>(cmd->type);
      // Stage clock: one read here (ends the queue stage, starts
      // execute) and one after Execute. Untraced commands skip the
      // Emits but are still timed.
      const auto dispatched = std::chrono::steady_clock::now();
      const auto lag = dispatched - c->batch_arrival;
      r.queue_ns = Ns(lag);
      if (r.trace_id != 0) {
        rec->Emit(TraceEventType::kFrameDecoded, r.trace_id, r.span_id, r.tag);
        rec->Emit(TraceEventType::kRpcQueue, r.trace_id, r.span_id, r.tag, 0,
                  r.queue_ns);
      }
      if (cmd->type == api::CommandType::kBegin) {
        r.shed = Overloaded(lag);
        if (r.trace_id != 0) {
          rec->Emit(TraceEventType::kAdmission, r.trace_id, r.span_id, r.tag,
                    r.shed);
        }
        if (r.shed) {
          stats->admission_shed.fetch_add(1, std::memory_order_relaxed);
          r.enqueued = dispatched;
          r.reply = ShedReply(lag);
          Deliver(w, c, std::move(r));
          continue;
        }
      }
      auto dl_before = c->session.deadline_stats();
      size_t txns_before = c->session.open_txns();
      r.reply = c->session.Execute(*cmd, c->batch_arrival, &r.gate);
      r.enqueued = std::chrono::steady_clock::now();
      r.execute_ns = Ns(r.enqueued - dispatched);
      // The kernel tid bridges the wire trace to kernel events (lock
      // waits, WAL appends) emitted under that transaction.
      r.kernel_tid = c->session.current();
      if (cmd->type == api::CommandType::kBegin && r.reply.ok()) {
        r.kernel_tid = r.reply.u64;
      }
      if (r.trace_id != 0) {
        rec->Emit(TraceEventType::kRpcExecute, r.trace_id, r.span_id, r.tag,
                  r.kernel_tid, r.execute_ns);
      }
      auto dl_after = c->session.deadline_stats();
      stats->deadline_expired.fetch_add(
          dl_after.expired_rejects - dl_before.expired_rejects,
          std::memory_order_relaxed);
      stats->deadline_timeout_aborts.fetch_add(
          dl_after.timeout_aborts - dl_before.timeout_aborts,
          std::memory_order_relaxed);
      stats->open_txns.fetch_add(
          static_cast<int64_t>(c->session.open_txns()) -
              static_cast<int64_t>(txns_before),
          std::memory_order_relaxed);
      if (cmd->type == api::CommandType::kMetrics && r.reply.ok()) {
        r.reply.text += stats->Render() + RenderExtraMetrics();
      }
      if (cmd->type == api::CommandType::kSlowLog && r.reply.ok()) {
        r.reply.text = RenderSlowLogJson();
      }
      Deliver(w, c, std::move(r));
    }
    // Lazy compaction: drop the consumed prefix once it dominates.
    if (c->in_off > 0 &&
        (c->in_off >= c->in.size() || c->in_off > (64u << 10))) {
      c->in.erase(c->in.begin(),
                  c->in.begin() + static_cast<ptrdiff_t>(c->in_off));
      c->in_off = 0;
    }
  }

  /// Answers a frame the stream cannot recover from; the connection
  /// closes once that reply is sent. There is no command, so the
  /// request is not timed.
  void RejectFrame(Worker* w, Conn* c, const Status& s) {
    stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    Request r;
    r.reply = api::Reply::FromStatus(s);
    Deliver(w, c, std::move(r));
    c->closing = true;
  }

  /// The admission controller's overload predicate for new Begins.
  /// Operations on running transactions are never shed — they make
  /// progress toward *shedding* load (a commit or abort frees locks),
  /// so refusing them would only deepen the overload.
  bool Overloaded(std::chrono::steady_clock::duration lag) const {
    if (options.admission_max_open_txns > 0 &&
        stats->open_txns.load(std::memory_order_relaxed) >=
            static_cast<int64_t>(options.admission_max_open_txns)) {
      return true;
    }
    return options.admission_max_lag.count() > 0 &&
           lag > options.admission_max_lag;
  }

  /// A retryable kOverloaded reply whose i64 value is the suggested
  /// backoff in milliseconds: the base hint plus the observed dispatch
  /// lag, so hints stretch as the server falls further behind.
  api::Reply ShedReply(std::chrono::steady_clock::duration lag) const {
    auto lag_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(lag).count();
    api::Reply r = api::Reply::FromStatus(Status::Overloaded(
        "server: overloaded, retry Begin after backoff"));
    r.kind = api::ReplyValueKind::kI64;
    r.i64 = options.overload_retry_hint.count() + lag_ms;
    return r;
  }

  /// Queues `r` on its connection. Its reply is encoded into `c->out`
  /// at once, unless a durability gate holds it or a held reply is ahead
  /// of it: replies never overtake each other.
  void Deliver(Worker* w, Conn* c, Request r) {
    if (r.trace_id != 0) {
      rec->Emit(TraceEventType::kReplyEnqueued, r.trace_id, r.span_id, r.tag,
                static_cast<uint64_t>(r.reply.code));
    }
    const bool behind = c->holding();
    if (r.gate != kNullLsn) {
      w->max_gate = std::max(w->max_gate, r.gate);
      if (!behind) w->gated.push_back(c->fd);
    }
    c->requests.push_back(std::move(r));
    if (!behind && c->requests.back().gate == kNullLsn) {
      Encode(c, c->requests.back());
    }
  }

  /// Encodes `r`'s reply into `c->out` and drops the reply: from here on
  /// the record needs only its end byte and status code.
  void Encode(Conn* c, Request& r) {
    const api::Reply reply = std::move(r.reply);
    const size_t before = c->out.size();
    std::vector<uint8_t> payload;
    api::EncodeReply(reply, &payload);
    api::AppendFrame(payload, &c->out);
    c->out_total_queued += c->out.size() - before;
    r.out_end = c->out_total_queued;
    r.code = static_cast<uint8_t>(reply.code);
    stats->frames_out.fetch_add(1, std::memory_order_relaxed);
  }

  /// End of an epoll round: one durability call up to the highest gate
  /// held by this worker's connections — leading a WAL flush or
  /// following the one in progress — then every held reply goes out in
  /// order. A gated commit whose record did not become durable (sticky
  /// WAL error) is answered with that error instead of OK.
  void ReleaseGated(Worker* w) {
    if (w->max_gate == kNullLsn) return;
    const Status durable = log->WaitDurable(w->max_gate);
    const Lsn durable_lsn = durable.ok() ? w->max_gate : log->durable_lsn();
    w->max_gate = kNullLsn;
    for (int fd : w->gated) {
      auto it = w->conns.find(fd);
      if (it == w->conns.end()) continue;  // disconnected: nothing acked
      Conn* c = it->second.get();
      for (Request& r : c->requests) {
        if (r.out_end != Request::kHeld) continue;
        if (r.gate > durable_lsn) r.reply = api::Reply::FromStatus(durable);
        Encode(c, r);
      }
      FlushOut(w, c);
    }
    w->gated.clear();
  }

  /// Settles every request whose reply bytes have all left the socket:
  /// records its queue, execute and flush samples, emits kReplyFlushed,
  /// and keeps it in the slow-request ring when its stage total meets
  /// the threshold. A request is counted here or never, so a tag's
  /// three stage histograms count the same requests (a shed Begin has
  /// no execute sample). Called after every successful send.
  void Settle(Conn* c) {
    const auto now = std::chrono::steady_clock::now();
    const int64_t threshold_ns = Ns(options.slow_request_threshold);
    while (!c->requests.empty() &&
           c->requests.front().out_end <= c->out_total_sent) {
      Request r = std::move(c->requests.front());
      c->requests.pop_front();
      if (r.tag == 0) continue;  // protocol error
      r.flush_ns = Ns(now - r.enqueued);
      StageHistograms& h = stage_hist[r.tag];
      h.queue.Record(static_cast<uint64_t>(r.queue_ns));
      if (!r.shed) h.execute.Record(static_cast<uint64_t>(r.execute_ns));
      h.flush.Record(static_cast<uint64_t>(r.flush_ns));
      if (r.trace_id != 0) {
        rec->Emit(TraceEventType::kReplyFlushed, r.trace_id, r.span_id, r.tag,
                  r.code, r.flush_ns);
      }
      if (threshold_ns == 0 ||
          r.queue_ns + r.execute_ns + r.flush_ns < threshold_ns) {
        continue;
      }
      r.ts_ns = FlightRecorder::NowNs();
      std::lock_guard<std::mutex> g(slow_mu);
      if (slow_ring.size() < options.slow_log_slots) {
        slow_ring.push_back(std::move(r));
      } else {
        slow_ring[slow_next] = std::move(r);
      }
      slow_next = (slow_next + 1) % options.slow_log_slots;
      ++slow_total;
    }
  }

  /// Sends as much of `c->out` as the socket takes, settling what left.
  /// Returns false on a send error; EAGAIN is not one.
  bool Send(Conn* c) {
    while (c->pending_out() > 0) {
      ssize_t sent = SysSend(c->fd, c->out.data() + c->out_off,
                             c->pending_out(), MSG_NOSIGNAL);
      if (sent > 0) {
        c->out_off += static_cast<size_t>(sent);
        c->out_total_sent += static_cast<uint64_t>(sent);
        stats->bytes_out.fetch_add(static_cast<uint64_t>(sent),
                                   std::memory_order_relaxed);
        Settle(c);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Sends what `c` has queued and updates its epoll interest. Returns
  /// false if the connection was closed.
  bool FlushOut(Worker* w, Conn* c) {
    if (!Send(c)) {
      CloseConn(w, c);
      return false;
    }
    if (c->pending_out() == 0) {
      c->out.clear();
      c->out_off = 0;
      if (c->closing && !c->holding()) {
        CloseConn(w, c);
        return false;
      }
      if (c->read_paused) c->read_paused = false;
    } else if (!c->read_paused &&
               c->pending_out() > options.write_buffer_limit) {
      c->read_paused = true;
      stats->backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    }
    UpdateInterest(w, c);
    return true;
  }

  bool HandleWrite(Worker* w, Conn* c) {
    c->last_activity = std::chrono::steady_clock::now();
    return FlushOut(w, c);
  }

  void SweepIdle(Worker* w, std::chrono::steady_clock::time_point now) {
    std::vector<Conn*> doomed;
    for (auto& [fd, conn] : w->conns) {
      if (now - conn->last_activity >= options.idle_timeout) {
        doomed.push_back(conn.get());
      }
    }
    for (Conn* c : doomed) {
      stats->idle_closed.fetch_add(1, std::memory_order_relaxed);
      CloseConn(w, c);
    }
  }

  void CloseConn(Worker* w, Conn* c) {
    stats->txns_aborted_on_close.fetch_add(c->session.open_txns(),
                                           std::memory_order_relaxed);
    stats->open_txns.fetch_sub(static_cast<int64_t>(c->session.open_txns()),
                               std::memory_order_relaxed);
    epoll_ctl(w->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    stats->connections_active.fetch_sub(1, std::memory_order_relaxed);
    stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
    w->conns.erase(c->fd);  // destroys the ApiSession -> aborts open txns
  }

  /// Shutdown path: resolve every durability gate, give queued replies
  /// one bounded chance to land, then close everything (aborting open
  /// transactions).
  void DrainAndCloseAll(Worker* w) {
    ReleaseGated(w);
    auto deadline = std::chrono::steady_clock::now() + options.drain_timeout;
    bool pending = true;
    while (pending && std::chrono::steady_clock::now() < deadline) {
      pending = false;
      for (auto& [fd, conn] : w->conns) {
        // A connection whose send failed has nothing more to wait for.
        if (Send(conn.get()) && conn->pending_out() > 0) pending = true;
      }
      if (pending) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    while (!w->conns.empty()) {
      CloseConn(w, w->conns.begin()->second.get());
    }
  }

  // --- Introspection rendering ---------------------------------------

  /// Per-command stage-latency summaries plus the flight-recorder and
  /// slow-log state gauges — appended after ServerStats::Render() both
  /// in Server::MetricsText() and in the wire kMetrics reply.
  std::string RenderExtraMetrics() const {
    std::string out;
    out +=
        "# HELP asset_server_stage_ns Per-command request stage latency "
        "(dispatch queue, kernel execute, reply flush), nanoseconds.\n"
        "# TYPE asset_server_stage_ns summary\n";
    auto summary = [&out](const char* command, const char* stage,
                          const LatencyHistogram& h) {
      const LatencyHistogram::Snapshot s = h.snapshot();
      if (s.count == 0) return;
      auto line = [&](const char* suffix, const char* quantile,
                      uint64_t v) {
        out += "asset_server_stage_ns";
        out += suffix;
        out += "{command=\"";
        out += command;
        out += "\",stage=\"";
        out += stage;
        out += '"';
        if (quantile != nullptr) {
          out += ",quantile=\"";
          out += quantile;
          out += '"';
        }
        out += "} ";
        out += std::to_string(v);
        out += '\n';
      };
      line("", "0.5", s.p50());
      line("", "0.95", s.p95());
      line("", "0.99", s.p99());
      line("_count", nullptr, s.count);
      line("_sum", nullptr, s.sum);
    };
    for (size_t tag = 1; tag < kNumTags; ++tag) {
      const char* name = api::CommandTypeToString(
          static_cast<api::CommandType>(tag));
      const StageHistograms& h = stage_hist[tag];
      summary(name, "queue", h.queue);
      summary(name, "execute", h.execute);
      summary(name, "flush", h.flush);
    }
    AppendFamily(&out, "gauge", "asset_server_trace_enabled",
                 "Whether the flight recorder is recording (1) or not (0).",
                 rec->enabled() ? 1 : 0);
    AppendFamily(&out, "gauge", "asset_server_trace_ring_slots",
                 "Event slots per per-thread flight-recorder ring.",
                 static_cast<int64_t>(rec->ring_slots()));
    AppendFamily(&out, "gauge", "asset_server_trace_rings",
                 "Per-thread flight-recorder rings created so far.",
                 static_cast<int64_t>(rec->ring_count()));
    AppendFamily(&out, "gauge", "asset_server_slow_request_threshold_ms",
                 "Slow-request capture threshold in milliseconds (0 = off).",
                 options.slow_request_threshold.count());
    uint64_t total;
    {
      std::lock_guard<std::mutex> g(slow_mu);
      total = slow_total;
    }
    AppendFamily(&out, "counter", "asset_server_slow_requests_total",
                 "Requests whose queue+execute+flush total met the "
                 "slow-request threshold.",
                 total);
    return out;
  }

  /// The slow-request ring as JSON, oldest entry first.
  std::string RenderSlowLogJson() const {
    std::vector<Request> entries;
    uint64_t total;
    {
      std::lock_guard<std::mutex> g(slow_mu);
      total = slow_total;
      entries.reserve(slow_ring.size());
      // slow_next is the oldest slot once the ring has wrapped.
      const size_t n = slow_ring.size();
      const size_t start = n < options.slow_log_slots ? 0 : slow_next;
      for (size_t i = 0; i < n; ++i) {
        entries.push_back(slow_ring[(start + i) % n]);
      }
    }
    std::string out = "{\"threshold_ms\":" +
                      std::to_string(options.slow_request_threshold.count()) +
                      ",\"total\":" + std::to_string(total) +
                      ",\"slow_requests\":[";
    bool first = true;
    for (const Request& s : entries) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"trace_id\":" + std::to_string(s.trace_id) +
             ",\"span_id\":" + std::to_string(s.span_id) +
             ",\"command\":\"" +
             api::CommandTypeToString(static_cast<api::CommandType>(s.tag)) +
             "\",\"kernel_tid\":" + std::to_string(s.kernel_tid) +
             ",\"outcome\":\"" +
             StatusCodeToString(static_cast<StatusCode>(s.code)) +
             "\",\"queue_ns\":" + std::to_string(s.queue_ns) +
             ",\"execute_ns\":" + std::to_string(s.execute_ns) +
             ",\"flush_ns\":" + std::to_string(s.flush_ns) +
             ",\"total_ns\":" +
             std::to_string(s.queue_ns + s.execute_ns + s.flush_ns) +
             ",\"ts_ns\":" + std::to_string(s.ts_ns) + '}';
    }
    out += "]}";
    return out;
  }
};

Result<std::unique_ptr<Server>> Server::Start(Database* db, Options options) {
  if (db == nullptr) {
    return Status::InvalidArgument("server: null database");
  }
  ASSET_RETURN_NOT_OK(options.Validate());

  auto server = std::unique_ptr<Server>(new Server());
  server->impl_ = std::make_unique<Impl>();
  Impl& impl = *server->impl_;
  impl.db = db;
  impl.log = &LogOf(*db);
  impl.options = options;
  impl.stats = &server->stats_;
  impl.rec = &db->trace_recorder();

  impl.listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl.listen_fd < 0) return Errno("server: socket");
  int one = 1;
  setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("server: bad host " + options.host);
  }
  if (bind(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Errno("server: bind " + options.host + ":" +
                 std::to_string(options.port));
  }
  if (listen(impl.listen_fd, options.listen_backlog) != 0) {
    return Errno("server: listen");
  }
  if (SetNonBlocking(impl.listen_fd) != 0) {
    return Errno("server: set listen nonblocking");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(impl.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                  &len) != 0) {
    return Errno("server: getsockname");
  }
  server->port_ = ntohs(addr.sin_port);

  impl.acceptor_wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl.acceptor_wake_fd < 0) return Errno("server: eventfd");

  for (int i = 0; i < options.workers; ++i) {
    auto w = std::make_unique<Impl::Worker>();
    w->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (w->epoll_fd < 0) return Errno("server: epoll_create1");
    w->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->wake_fd < 0) return Errno("server: eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    if (epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) != 0) {
      return Errno("server: epoll_ctl wake_fd");
    }
    impl.workers.push_back(std::move(w));
  }

  for (auto& w : impl.workers) {
    Impl::Worker* raw = w.get();
    w->thread = std::thread([&impl, raw] { impl.WorkerMain(raw); });
  }
  impl.acceptor = std::thread([&impl] { impl.AcceptorMain(); });
  return server;
}

void Server::Shutdown() {
  if (impl_ == nullptr) return;
  bool expected = false;
  if (!impl_->shut_down.compare_exchange_strong(expected, true)) return;
  impl_->stop.store(true, std::memory_order_release);
  uint64_t one = 1;
  ssize_t ignored = write(impl_->acceptor_wake_fd, &one, sizeof(one));
  (void)ignored;
  for (auto& w : impl_->workers) {
    ignored = write(w->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  for (auto& w : impl_->workers) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Server::~Server() { Shutdown(); }

std::string Server::MetricsText() const {
  return impl_->db->MetricsText() + stats_.Render() +
         impl_->RenderExtraMetrics();
}

std::string Server::SlowLogJson() const { return impl_->RenderSlowLogJson(); }

}  // namespace asset::server
