#include "client/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "api/wire.h"
#include "common/sys_hooks.h"

namespace asset::client {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Status Client::Options::Validate() const {
  if (max_frame_bytes < 16) {
    return Status::InvalidArgument(
        "client: max_frame_bytes too small to hold any reply");
  }
  if (connect_timeout.count() < 0 || io_timeout.count() < 0) {
    return Status::InvalidArgument("client: negative timeout");
  }
  if (max_retries < 0) {
    return Status::InvalidArgument("client: negative max_retries");
  }
  if (backoff_base.count() <= 0) {
    return Status::InvalidArgument("client: backoff_base must be > 0");
  }
  if (backoff_max < backoff_base) {
    return Status::InvalidArgument(
        "client: backoff_max below backoff_base");
  }
  return Status::OK();
}

Client::Client(const std::string& host, uint16_t port, Options options)
    : host_(host),
      port_(port),
      options_(options),
      jitter_rng_(static_cast<unsigned>(
          std::chrono::steady_clock::now().time_since_epoch().count() ^
          reinterpret_cast<uintptr_t>(this))) {}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

void Client::DropConnection() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  send_buf_.clear();
  staged_ = 0;
  recv_buf_.clear();
  recv_off_ = 0;
  inflight_.clear();
}

uint64_t Client::NewTraceId() {
  // minstd_rand yields 31 bits per draw; two draws plus the counter
  // fill 64 bits without ever minting zero (the "untraced" value).
  uint64_t id = (static_cast<uint64_t>(jitter_rng_()) << 33) ^
                (static_cast<uint64_t>(jitter_rng_()) << 11) ^
                ++trace_counter_;
  return id == 0 ? 1 : id;
}

Status Client::WaitFor(short events, const char* what) {
  pollfd pfd{fd_, events, 0};
  int timeout = options_.io_timeout.count() > 0
                    ? static_cast<int>(options_.io_timeout.count())
                    : -1;
  for (;;) {
    int n = SysPoll(&pfd, 1, timeout);
    if (n > 0) return Status::OK();
    if (n == 0) {
      ++stats_.timeouts;
      return Status::TimedOut(std::string("client: ") + what +
                              " timed out after " +
                              std::to_string(options_.io_timeout.count()) +
                              " ms");
    }
    if (errno == EINTR) continue;
    return Errno(std::string("client: poll for ") + what);
  }
}

Status Client::DialOnce() {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("client: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("client: bad host " + host_);
  }
  const std::string where = host_ + ":" + std::to_string(port_);
  if (SysConnect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      Status s = Errno("client: connect " + where);
      close(fd);
      return s;
    }
    // Nonblocking connect in flight: bounded wait for writability,
    // then read the final verdict out of SO_ERROR.
    pollfd pfd{fd, POLLOUT, 0};
    int timeout = options_.connect_timeout.count() > 0
                      ? static_cast<int>(options_.connect_timeout.count())
                      : -1;
    int n;
    do {
      n = SysPoll(&pfd, 1, timeout);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      close(fd);
      ++stats_.timeouts;
      return Status::TimedOut(
          "client: connect " + where + " timed out after " +
          std::to_string(options_.connect_timeout.count()) + " ms");
    }
    if (n < 0) {
      Status s = Errno("client: poll for connect " + where);
      close(fd);
      return s;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      if (err != 0) errno = err;
      Status s = Errno("client: connect " + where);
      close(fd);
      return s;
    }
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;

  if (!options_.skip_handshake) {
    Send(api::Command::Hello());
    Status fs = Flush();
    if (fs.ok()) {
      auto hello = Receive();
      if (!hello.ok()) fs = hello.status();
      else if (!hello->ok()) fs = hello->ToStatus();
      else server_version_ = static_cast<uint16_t>(hello->i64);
    }
    if (!fs.ok()) {
      DropConnection();
      return fs;
    }
  }
  return Status::OK();
}

Status Client::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  // A fresh dial sends nothing until it succeeds, so connect failures
  // are always safe to retry. Re-dialing after the transport died
  // counts as a reconnect even when the first attempt lands.
  const bool redial = ever_connected_;
  Status s;
  for (int attempt = 0;; ++attempt) {
    s = DialOnce();
    if (s.ok()) {
      if (redial || attempt > 0) ++stats_.reconnects;
      ever_connected_ = true;
      return s;
    }
    if (s.code() == StatusCode::kInvalidArgument ||
        attempt >= options_.max_retries) {
      return s;  // a bad host never gets better; retries exhausted
    }
    Backoff(attempt, 0);
  }
}

void Client::Backoff(int attempt, int64_t hint_ms) {
  int64_t base = options_.backoff_base.count();
  int64_t cap = options_.backoff_max.count();
  int64_t exp = base << std::min(attempt, 20);
  int64_t ceiling = std::min(exp, cap);
  // Full jitter: sleep uniformly in [0, ceiling] so a thundering herd
  // of shed clients decorrelates, but never under the server's hint.
  int64_t sleep_ms =
      static_cast<int64_t>(jitter_rng_() % static_cast<uint64_t>(ceiling + 1));
  sleep_ms = std::max(sleep_ms, hint_ms);
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                Options options) {
  ASSET_RETURN_NOT_OK(options.Validate());
  auto client =
      std::unique_ptr<Client>(new Client(host, port, options));
  ASSET_RETURN_NOT_OK(client->EnsureConnected());
  return client;
}

void Client::Send(const api::Command& cmd) {
  const bool stamp_deadline =
      cmd.deadline_ms == 0 && options_.default_deadline_ms > 0;
  // Trace stamping: a command arriving pre-stamped (Call's retry loop,
  // or an explicit WithTrace) keeps its trace id and gets a fresh span
  // per send; an unstamped command gets a whole new context when
  // tracing is on.
  uint64_t trace = cmd.trace_id;
  uint64_t span = cmd.span_id;
  if (trace == 0 && TracingOn()) trace = NewTraceId();
  if (trace != 0 && span == 0) span = ++trace_counter_;
  std::vector<uint8_t> payload;
  if (stamp_deadline || trace != cmd.trace_id || span != cmd.span_id) {
    api::Command stamped = cmd;
    if (stamp_deadline) stamped.deadline_ms = options_.default_deadline_ms;
    stamped.trace_id = trace;
    stamped.span_id = span;
    api::EncodeCommand(stamped, &payload);
  } else {
    api::EncodeCommand(cmd, &payload);
  }
  if (trace != 0) last_trace_id_ = trace;
  Inflight inflight;
  inflight.trace_id = trace;
  inflight.span_id = span;
  inflight.tag = static_cast<uint8_t>(cmd.type);
  inflight.send_ns = trace != 0 ? FlightRecorder::NowNs() : 0;
  inflight_.push_back(inflight);
  api::AppendFrame(payload, &send_buf_);
  ++staged_;
}

Status Client::Flush() {
  if (fd_ < 0) {
    return Status::Unavailable("client: not connected");
  }
  size_t off = 0;
  while (off < send_buf_.size()) {
    ssize_t sent = SysSend(fd_, send_buf_.data() + off,
                           send_buf_.size() - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status w = WaitFor(POLLOUT, "send");
        if (!w.ok()) {
          DropConnection();
          return w;
        }
        continue;
      }
      Status s = errno == EPIPE || errno == ECONNRESET
                     ? Status::Unavailable("client: connection reset by peer")
                     : Errno("client: send");
      DropConnection();
      return s;
    }
    off += static_cast<size_t>(sent);
  }
  send_buf_.clear();
  staged_ = 0;
  return Status::OK();
}

Status Client::FillTo(size_t need) {
  if (fd_ < 0) {
    return Status::Unavailable("client: not connected");
  }
  // Compact the consumed prefix before growing the buffer.
  if (recv_off_ > 0 && recv_off_ == recv_buf_.size()) {
    recv_buf_.clear();
    recv_off_ = 0;
  }
  while (recv_buf_.size() - recv_off_ < need) {
    size_t base = recv_buf_.size();
    size_t chunk = 64 * 1024;
    recv_buf_.resize(base + chunk);
    ssize_t got = SysRecv(fd_, recv_buf_.data() + base, chunk, 0);
    if (got < 0) {
      recv_buf_.resize(base);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status w = WaitFor(POLLIN, "recv");
        if (!w.ok()) {
          DropConnection();
          return w;
        }
        continue;
      }
      Status s = errno == ECONNRESET
                     ? Status::Unavailable("client: connection reset by peer")
                     : Errno("client: recv");
      DropConnection();
      return s;
    }
    if (got == 0) {
      recv_buf_.resize(base);
      DropConnection();
      return Status::Unavailable("client: connection closed by server");
    }
    recv_buf_.resize(base + static_cast<size_t>(got));
  }
  return Status::OK();
}

Result<api::Reply> Client::Receive() {
  ASSET_RETURN_NOT_OK(FillTo(api::kFrameHeaderBytes));
  std::span<const uint8_t> buffered(recv_buf_.data() + recv_off_,
                                    recv_buf_.size() - recv_off_);
  std::span<const uint8_t> payload;
  api::FrameSplit split =
      api::TrySplitFrame(buffered, options_.max_frame_bytes, &payload);
  if (split == api::FrameSplit::kNeedMore) {
    api::WireReader header(buffered.subspan(0, api::kFrameHeaderBytes));
    uint32_t len = 0;
    header.GetU32(&len);
    ASSET_RETURN_NOT_OK(FillTo(api::kFrameHeaderBytes + len));
    buffered = std::span<const uint8_t>(recv_buf_.data() + recv_off_,
                                        recv_buf_.size() - recv_off_);
    split = api::TrySplitFrame(buffered, options_.max_frame_bytes, &payload);
  }
  if (split != api::FrameSplit::kFrame) {
    return Status::InvalidArgument("client: oversized or zero-length frame");
  }
  auto reply = api::DecodeReply(payload);
  recv_off_ += api::kFrameHeaderBytes + payload.size();
  if (!inflight_.empty()) {
    const Inflight sent = inflight_.front();
    inflight_.pop_front();
    if (sent.trace_id != 0 && options_.trace_recorder != nullptr) {
      const uint64_t code =
          reply.ok() ? static_cast<uint64_t>(reply->code) : 0;
      options_.trace_recorder->Emit(
          TraceEventType::kClientRpc, sent.trace_id, sent.span_id, sent.tag,
          code, FlightRecorder::NowNs() - sent.send_ns);
    }
  }
  return reply;
}

Result<api::Reply> Client::Call(const api::Command& cmd) {
  // One trace id for the whole logical call: stamped up front (once
  // connected, when tracing is on) so every retry and reconnected
  // re-send shares it, each attempt distinguished by its span id.
  api::Command attempt_cmd = cmd;
  for (int attempt = 0;; ++attempt) {
    if (fd_ < 0) {
      if (!options_.auto_reconnect) {
        return Status::Unavailable("client: not connected");
      }
      ASSET_RETURN_NOT_OK(EnsureConnected());
    }
    if (attempt_cmd.trace_id == 0 && TracingOn()) {
      attempt_cmd.trace_id = NewTraceId();
    }
    attempt_cmd.span_id = 0;  // Send mints a fresh span per attempt
    Send(attempt_cmd);
    // A transport error from here on is NOT retried: the command's
    // bytes may have reached the server and executed, and re-sending
    // would risk executing twice. Only the server saying "I shed this
    // before executing it" (kOverloaded) is safe to re-send.
    ASSET_RETURN_NOT_OK(Flush());
    ASSET_ASSIGN_OR_RETURN(api::Reply reply, Receive());
    if (reply.code != StatusCode::kOverloaded) return reply;
    ++stats_.overloaded_seen;
    if (attempt >= options_.max_retries) return reply;
    ++stats_.retries;
    Backoff(attempt, reply.kind == api::ReplyValueKind::kI64 ? reply.i64 : 0);
  }
}

Result<Tid> Client::Begin() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Begin()));
  if (!r.ok()) return r.ToStatus();
  return static_cast<Tid>(r.u64);
}

Status Client::Commit(Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Commit(t)));
  return r.ToStatus();
}

Status Client::Abort(Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Abort(t)));
  return r.ToStatus();
}

Result<ObjectId> Client::Create(const std::vector<uint8_t>& bytes, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Create(bytes, t)));
  if (!r.ok()) return r.ToStatus();
  return static_cast<ObjectId>(r.u64);
}

Result<std::vector<uint8_t>> Client::Get(ObjectId oid, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Get(oid, t)));
  if (!r.ok()) return r.ToStatus();
  return std::move(r.bytes);
}

Status Client::Put(ObjectId oid, const std::vector<uint8_t>& bytes, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Put(oid, bytes, t)));
  return r.ToStatus();
}

Status Client::Delete(ObjectId oid, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Delete(oid, t)));
  return r.ToStatus();
}

Result<ObjectId> Client::CreateCounter(int64_t initial, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r,
                         Call(api::Command::CreateCounter(initial, t)));
  if (!r.ok()) return r.ToStatus();
  return static_cast<ObjectId>(r.u64);
}

Status Client::Add(ObjectId oid, int64_t delta, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Add(oid, delta, t)));
  return r.ToStatus();
}

Result<int64_t> Client::GetCounter(ObjectId oid, Tid t) {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::GetCounter(oid, t)));
  if (!r.ok()) return r.ToStatus();
  return r.i64;
}

Status Client::Ping() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Ping()));
  return r.ToStatus();
}

Status Client::Checkpoint() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Checkpoint()));
  return r.ToStatus();
}

Result<std::string> Client::Metrics() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::Metrics()));
  if (!r.ok()) return r.ToStatus();
  return std::move(r.text);
}

Result<std::string> Client::DumpTrace() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::DumpTrace()));
  if (!r.ok()) return r.ToStatus();
  return std::move(r.text);
}

Result<std::string> Client::SlowLog() {
  ASSET_ASSIGN_OR_RETURN(api::Reply r, Call(api::Command::SlowLog()));
  if (!r.ok()) return r.ToStatus();
  return std::move(r.text);
}

}  // namespace asset::client
