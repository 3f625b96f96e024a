#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/sys_hooks.h"

namespace asset {

namespace {

uint32_t Fnv1a(const uint8_t* data, size_t len) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutBytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& b) {
  PutU32(out, static_cast<uint32_t>(b.size()));
  out->insert(out->end(), b.begin(), b.end());
}

bool GetU32(const std::vector<uint8_t>& in, size_t* off, uint32_t* v) {
  if (*off + 4 > in.size()) return false;
  *v = static_cast<uint32_t>(in[*off]) |
       (static_cast<uint32_t>(in[*off + 1]) << 8) |
       (static_cast<uint32_t>(in[*off + 2]) << 16) |
       (static_cast<uint32_t>(in[*off + 3]) << 24);
  *off += 4;
  return true;
}

bool GetU64(const std::vector<uint8_t>& in, size_t* off, uint64_t* v) {
  uint32_t lo, hi;
  if (!GetU32(in, off, &lo) || !GetU32(in, off, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool GetBytes(const std::vector<uint8_t>& in, size_t* off,
              std::vector<uint8_t>* b) {
  uint32_t len;
  if (!GetU32(in, off, &len)) return false;
  if (*off + len > in.size()) return false;
  b->assign(in.begin() + *off, in.begin() + *off + len);
  *off += len;
  return true;
}

/// Rough wire size of a record (header + fixed body + payloads); used
/// for the appended-bytes counter when the log is not file-backed.
size_t EstimateEncodedSize(const LogRecord& rec) {
  return 61 + rec.before.size() + rec.after.size() + 8 * rec.oid_set.size();
}

}  // namespace

std::vector<uint8_t> FuzzyCheckpointImage::Encode() const {
  std::vector<uint8_t> out;
  PutU64(&out, begin_lsn);
  PutU64(&out, min_recovery_lsn);
  PutU32(&out, static_cast<uint32_t>(active.size()));
  for (const TxnEntry& e : active) {
    PutU64(&out, e.tid);
    PutU32(&out, static_cast<uint32_t>(e.ops.size()));
    for (Lsn l : e.ops) PutU64(&out, l);
  }
  PutU32(&out, static_cast<uint32_t>(dirty_pages.size()));
  for (const auto& [page, rec_lsn] : dirty_pages) {
    PutU32(&out, page);
    PutU64(&out, rec_lsn);
  }
  return out;
}

Result<FuzzyCheckpointImage> FuzzyCheckpointImage::Decode(
    const std::vector<uint8_t>& bytes) {
  FuzzyCheckpointImage img;
  size_t off = 0;
  uint32_t n_active = 0;
  if (!GetU64(bytes, &off, &img.begin_lsn) ||
      !GetU64(bytes, &off, &img.min_recovery_lsn) ||
      !GetU32(bytes, &off, &n_active)) {
    return Status::Corruption("truncated fuzzy checkpoint header");
  }
  img.active.resize(n_active);
  for (TxnEntry& e : img.active) {
    uint32_t n_ops = 0;
    if (!GetU64(bytes, &off, &e.tid) || !GetU32(bytes, &off, &n_ops)) {
      return Status::Corruption("truncated fuzzy checkpoint ATT entry");
    }
    e.ops.resize(n_ops);
    for (Lsn& l : e.ops) {
      if (!GetU64(bytes, &off, &l)) {
        return Status::Corruption("truncated fuzzy checkpoint ATT ops");
      }
    }
  }
  uint32_t n_dirty = 0;
  if (!GetU32(bytes, &off, &n_dirty)) {
    return Status::Corruption("truncated fuzzy checkpoint DPT count");
  }
  img.dirty_pages.resize(n_dirty);
  for (auto& [page, rec_lsn] : img.dirty_pages) {
    if (!GetU32(bytes, &off, &page) || !GetU64(bytes, &off, &rec_lsn)) {
      return Status::Corruption("truncated fuzzy checkpoint DPT entry");
    }
  }
  if (off != bytes.size()) {
    return Status::Corruption("fuzzy checkpoint payload length mismatch");
  }
  return img;
}

std::vector<uint8_t> EncodeI64(int64_t v) {
  std::vector<uint8_t> out(sizeof(int64_t));
  std::memcpy(out.data(), &v, sizeof(int64_t));
  return out;
}

Result<int64_t> DecodeI64(const std::vector<uint8_t>& bytes) {
  if (bytes.size() != sizeof(int64_t)) {
    return Status::Corruption("i64 payload size mismatch");
  }
  int64_t v;
  std::memcpy(&v, bytes.data(), sizeof(int64_t));
  return v;
}

void LogRecord::EncodeTo(std::vector<uint8_t>* out) const {
  std::vector<uint8_t> body;
  body.push_back(static_cast<uint8_t>(type));
  PutU64(&body, lsn);
  PutU64(&body, tid);
  PutU64(&body, other_tid);
  PutU64(&body, oid);
  PutU64(&body, undo_of);
  PutBytes(&body, before);
  PutBytes(&body, after);
  PutU32(&body, static_cast<uint32_t>(oid_set.size()));
  for (ObjectId id : oid_set) PutU64(&body, id);

  PutU32(out, static_cast<uint32_t>(body.size()));
  PutU32(out, Fnv1a(body.data(), body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

Result<LogRecord> LogRecord::DecodeFrom(const std::vector<uint8_t>& data,
                                        size_t* offset) {
  if (*offset == data.size()) {
    return Status::NotFound("end of log");
  }
  size_t off = *offset;
  uint32_t len, crc;
  if (!GetU32(data, &off, &len) || !GetU32(data, &off, &crc) ||
      off + len > data.size()) {
    return Status::Corruption("torn log record frame");
  }
  if (Fnv1a(data.data() + off, len) != crc) {
    return Status::Corruption("log record checksum mismatch");
  }
  size_t body_end = off + len;
  LogRecord rec;
  uint8_t type_byte = data[off++];
  // 9 is the retired quiescent-checkpoint type: no longer a record.
  if (type_byte < static_cast<uint8_t>(LogRecordType::kBegin) ||
      type_byte > static_cast<uint8_t>(LogRecordType::kFuzzyCheckpoint) ||
      type_byte == 9) {
    return Status::Corruption("unknown log record type");
  }
  rec.type = static_cast<LogRecordType>(type_byte);
  uint32_t nset = 0;
  if (!GetU64(data, &off, &rec.lsn) || !GetU64(data, &off, &rec.tid) ||
      !GetU64(data, &off, &rec.other_tid) || !GetU64(data, &off, &rec.oid) ||
      !GetU64(data, &off, &rec.undo_of) ||
      !GetBytes(data, &off, &rec.before) ||
      !GetBytes(data, &off, &rec.after) || !GetU32(data, &off, &nset)) {
    return Status::Corruption("truncated log record body");
  }
  rec.oid_set.resize(nset);
  for (uint32_t i = 0; i < nset; ++i) {
    if (!GetU64(data, &off, &rec.oid_set[i])) {
      return Status::Corruption("truncated delegate set");
    }
  }
  if (off != body_end) {
    return Status::Corruption("log record body length mismatch");
  }
  *offset = body_end;
  return rec;
}

LogManager::LogManager() : io_status_(Status::OK()) {}

LogManager::~LogManager() {
  if (fd_ >= 0) ::close(fd_);
}

Status LogManager::AttachFile(const std::string& path) {
  std::lock_guard<std::mutex> g(mu_);
  if (!records_.empty()) {
    return Status::IllegalState("AttachFile must precede any Append");
  }
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    return Status::IOError("lseek: " + std::string(std::strerror(errno)));
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  ASSET_RETURN_NOT_OK(
      PreadFully(fd_, bytes.data(), bytes.size(), 0, "log file"));
  size_t off = 0;
  size_t good_end = 0;
  for (;;) {
    auto rec = LogRecord::DecodeFrom(bytes, &off);
    if (!rec.ok()) {
      // Clean end or a torn tail from a crash mid-append: both end the
      // durable prefix. Truncate the file to the last whole record.
      break;
    }
    records_.push_back(std::move(rec).value());
    good_end = off;
  }
  if (good_end != bytes.size()) {
    if (::ftruncate(fd_, static_cast<off_t>(good_end)) != 0) {
      return Status::IOError("ftruncate: " +
                             std::string(std::strerror(errno)));
    }
  }
  // From here on every write lands at the tracked append offset; the
  // file is never lseek'd again.
  path_ = path;
  file_end_ = static_cast<off_t>(good_end);
  appended_bytes_ = good_end;
  // A previous process may have truncated the prefix: the file then
  // starts at some lsn > 1. Each frame carries its lsn, so the dropped
  // prefix length is recoverable from the first record.
  truncated_ = records_.empty() ? 0 : records_.front().lsn - 1;
  durable_lsn_ = truncated_ + static_cast<Lsn>(records_.size());
  requested_lsn_ = durable_lsn_;
  waited_lsn_ = durable_lsn_;
  buf_first_ = durable_lsn_;
  for (const LogRecord& r : records_) NoteDurableLocked(r);
  return Status::OK();
}

void LogManager::NoteDurableLocked(const LogRecord& r) {
  if (r.type != LogRecordType::kFuzzyCheckpoint) return;
  auto img = FuzzyCheckpointImage::Decode(r.after);
  last_checkpoint_ = r.lsn;
  // An undecodable image cannot happen short of corruption the checksum
  // missed; degrade to "never truncate" rather than lose records
  // recovery may need.
  checkpoint_min_recovery_ = img.ok() ? img.value().min_recovery_lsn : 1;
}

Lsn LogManager::Append(LogRecord rec) {
  std::lock_guard<std::mutex> g(mu_);
  rec.lsn = truncated_ + static_cast<Lsn>(records_.size()) + 1;
  Lsn lsn = rec.lsn;
  if (fd_ >= 0) {
    // Encode now, into the in-memory log buffer, so a leader never
    // touches `records_` (a deque being push_back'd concurrently) and a
    // flush is a single contiguous byte range.
    size_t before_sz = buf_.size();
    rec.EncodeTo(&buf_);
    ends_.push_back(buf_.size());
    appended_bytes_ += buf_.size() - before_sz;
  } else {
    appended_bytes_ += EstimateEncodedSize(rec);
  }
  if (sink_.recorder != nullptr) {
    sink_.recorder->Emit(TraceEventType::kWalAppend, rec.tid, rec.other_tid,
                         rec.oid, lsn);
  }
  records_.push_back(std::move(rec));
  if (sink_.appends != nullptr) {
    sink_.appends->fetch_add(1, std::memory_order_relaxed);
  }
  return lsn;
}

Status LogManager::Flush(Lsn upto) {
  std::unique_lock<std::mutex> lk(mu_);
  const Lsn end = truncated_ + static_cast<Lsn>(records_.size());
  const Lsn target = (upto == kNullLsn) ? end : upto;
  if (target > end) {
    return Status::InvalidArgument("flush beyond end of log");
  }
  return FlushLocked(lk, target, /*wait=*/true);
}

Status LogManager::RequestFlush(Lsn lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  const Lsn end = truncated_ + static_cast<Lsn>(records_.size());
  return FlushLocked(lk, (lsn == kNullLsn) ? end : std::min(lsn, end),
                     /*wait=*/false);
}

Status LogManager::FlushLocked(std::unique_lock<std::mutex>& lk, Lsn target,
                               bool wait) {
  requested_lsn_ = std::max(requested_lsn_, target);
  if (wait) waited_lsn_ = std::max(waited_lsn_, target);
  const uint64_t epoch = crash_epoch_;
  for (;;) {
    if (durable_lsn_ >= target) return Status::OK();
    // Sticky failure: nothing past durable_lsn_ will ever land, so even
    // a no-wait request must not read as a silent OK.
    if (!io_status_.ok()) return io_status_;
    if (crash_epoch_ != epoch) {
      return Status::IllegalState(
          "log crashed during flush wait: the awaited tail was discarded");
    }
    if (!flush_in_progress_) {
      LeadLocked(lk);
    } else if (!wait) {
      return Status::OK();  // the running leader takes it
    } else {
      durable_cv_.wait(lk);  // follower: the leader wakes us
    }
  }
}

void LogManager::LeadLocked(std::unique_lock<std::mutex>& lk) {
  do {
    const Lsn from = durable_lsn_;
    const Lsn target = std::min(
        requested_lsn_, truncated_ + static_cast<Lsn>(records_.size()));
    Status io;
    const bool sync = fd_ >= 0;  // else no device: durable by fiat
    size_t nbytes = 0;
    int64_t io_ns = 0;
    if (sync) {
      auto [lo, hi] = BatchRangeLocked(from, target);
      std::vector<uint8_t> batch(buf_.begin() + static_cast<ptrdiff_t>(lo),
                                 buf_.begin() + static_cast<ptrdiff_t>(hi));
      const off_t write_at = file_end_;
      const int fd = fd_;
      flush_in_progress_ = true;
      lk.unlock();

      // Device I/O happens here, with no lock held: appenders keep
      // reserving lsns and followers keep queueing requests meanwhile.
      const int64_t io_start_ns = FlightRecorder::NowNs();
      io = PwriteFully(fd, batch.data(), batch.size(), write_at, "log file");
      if (io.ok()) io = FsyncRetry(fd);
      io_ns = FlightRecorder::NowNs() - io_start_ns;
      nbytes = batch.size();
      lk.lock();
    }
    CompleteFlushLocked(from, target, nbytes, io, sync, io_ns);
    // A waiting follower past the new boundary leads the next batch
    // itself; only no-wait requests made during the I/O are ours.
  } while (io_status_.ok() && requested_lsn_ > durable_lsn_ &&
           waited_lsn_ <= durable_lsn_);
}

std::pair<size_t, size_t> LogManager::BatchRangeLocked(Lsn from,
                                                       Lsn target) const {
  assert(from >= buf_first_ && target > from);
  assert(target - buf_first_ <= ends_.size());
  size_t lo = (from == buf_first_) ? 0 : ends_[from - buf_first_ - 1];
  size_t hi = ends_[target - buf_first_ - 1];
  return {lo, hi};
}

void LogManager::CompleteFlushLocked(Lsn from, Lsn target, size_t nbytes,
                                     const Status& io, bool did_sync,
                                     int64_t io_ns) {
  if (io.ok()) {
    for (Lsn l = from + 1; l <= target; ++l) {
      NoteDurableLocked(records_[l - 1 - truncated_]);
    }
    durable_lsn_ = target;
    if (fd_ >= 0) {
      file_end_ += static_cast<off_t>(nbytes);
      // Drop the consumed prefix of the log buffer. Appends may have
      // extended it while the I/O ran; only the flushed range goes.
      size_t n_recs = static_cast<size_t>(target - buf_first_);
      ends_.erase(ends_.begin(),
                  ends_.begin() + static_cast<ptrdiff_t>(n_recs));
      if (nbytes > 0) {
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(nbytes));
        for (size_t& e : ends_) e -= nbytes;
      }
      buf_first_ = target;
    }
    if (sink_.records_flushed != nullptr) {
      sink_.records_flushed->fetch_add(target - from,
                                       std::memory_order_relaxed);
    }
    if (did_sync) {
      if (sink_.fsyncs != nullptr) {
        sink_.fsyncs->fetch_add(1, std::memory_order_relaxed);
      }
      if (io_ns < 0) io_ns = 0;
      if (sink_.fsync_hist != nullptr) {
        sink_.fsync_hist->Record(static_cast<uint64_t>(io_ns));
      }
      if (sink_.recorder != nullptr) {
        sink_.recorder->Emit(TraceEventType::kWalFsync, kNullTid, kNullTid,
                             kNullObjectId, target, io_ns);
      }
    }
  } else {
    // Sticky: the tail may be torn on disk; nothing past `from` may be
    // acknowledged, now or later. Waiters see the error.
    io_status_ = io;
  }
  flush_in_progress_ = false;
  durable_cv_.notify_all();
}

Lsn LogManager::last_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return truncated_ + static_cast<Lsn>(records_.size());
}

Lsn LogManager::durable_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return durable_lsn_;
}

bool LogManager::file_backed() const {
  std::lock_guard<std::mutex> g(mu_);
  return fd_ >= 0;
}

Lsn LogManager::last_checkpoint_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return last_checkpoint_;
}

Lsn LogManager::checkpoint_min_recovery_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return checkpoint_min_recovery_;
}

uint64_t LogManager::appended_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  return appended_bytes_;
}

void LogManager::SimulateCrash() {
  std::unique_lock<std::mutex> lk(mu_);
  // Let an in-flight flush land or fail first, so the durable boundary
  // we truncate to is the one the disk actually has.
  durable_cv_.wait(lk, [&] { return !flush_in_progress_; });
  records_.resize(durable_lsn_ - truncated_);
  requested_lsn_ = durable_lsn_;
  waited_lsn_ = durable_lsn_;
  buf_.clear();
  ends_.clear();
  buf_first_ = durable_lsn_;
  // Flush waiters whose target died with the tail would otherwise sleep
  // forever (their lsn can never become durable now); the epoch bump
  // wakes them into an IllegalState return.
  ++crash_epoch_;
  durable_cv_.notify_all();
}

LogRecord LogManager::At(Lsn lsn) const {
  std::lock_guard<std::mutex> g(mu_);
  assert(lsn > truncated_ && lsn <= truncated_ + records_.size());
  return records_[lsn - 1 - truncated_];
}

std::vector<LogRecord> LogManager::ReadAll() const {
  std::lock_guard<std::mutex> g(mu_);
  return {records_.begin(), records_.end()};
}

std::vector<LogRecord> LogManager::ReadDurable() const {
  std::lock_guard<std::mutex> g(mu_);
  return {records_.begin(),
          records_.begin() + static_cast<ptrdiff_t>(durable_lsn_ - truncated_)};
}

std::vector<uint8_t> LogManager::SerializeDurable() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<uint8_t> out;
  for (Lsn l = truncated_ + 1; l <= durable_lsn_; ++l) {
    records_[l - 1 - truncated_].EncodeTo(&out);
  }
  return out;
}

Result<std::vector<LogRecord>> LogManager::Deserialize(
    const std::vector<uint8_t>& bytes) {
  std::vector<LogRecord> out;
  size_t off = 0;
  for (;;) {
    auto rec = LogRecord::DecodeFrom(bytes, &off);
    if (!rec.ok()) {
      if (rec.status().IsNotFound()) break;  // clean end
      return rec.status();
    }
    out.push_back(std::move(rec).value());
  }
  return out;
}

size_t LogManager::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return records_.size();
}

Result<size_t> LogManager::TruncatePrefix(Lsn upto) {
  std::unique_lock<std::mutex> lk(mu_);
  // Wait out an in-flight flush: while we hold mu_ after this, no new
  // flush can start, so the durable boundary and the file are stable.
  durable_cv_.wait(lk, [&] { return !flush_in_progress_; });
  if (!io_status_.ok()) {
    return Status::IllegalState(
        "refusing to truncate a log with a sticky I/O error: " +
        io_status_.message());
  }
  // Safety rule: never drop a record the last durable checkpoint still
  // points at. No durable checkpoint -> nothing is provably redundant.
  const Lsn bound =
      (checkpoint_min_recovery_ == kNullLsn) ? 0 : checkpoint_min_recovery_ - 1;
  Lsn target = std::min(bound, durable_lsn_);
  if (upto != kNullLsn) target = std::min(target, upto);
  if (target <= truncated_) return static_cast<size_t>(0);
  const size_t dropped = static_cast<size_t>(target - truncated_);

  if (fd_ >= 0) {
    // Rewrite the retained durable suffix to a temp file and rename it
    // over the log: a crash at any point leaves either the old file or
    // the new one, both decodable (each frame carries its lsn, so
    // AttachFile re-derives the dropped-prefix length). The volatile
    // tail stays in buf_; future flushes append at the new file end.
    std::vector<uint8_t> out;
    for (Lsn l = target + 1; l <= durable_lsn_; ++l) {
      records_[l - 1 - truncated_].EncodeTo(&out);
    }
    const std::string tmp = path_ + ".truncate.tmp";
    int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) {
      return Status::IOError("open " + tmp + ": " + std::strerror(errno));
    }
    Status io = PwriteFully(tfd, out.data(), out.size(), 0, "truncated log");
    if (io.ok()) io = FsyncRetry(tfd);
    if (io.ok() && ::rename(tmp.c_str(), path_.c_str()) != 0) {
      io = Status::IOError("rename " + tmp + ": " + std::strerror(errno));
    }
    if (!io.ok()) {
      ::close(tfd);
      ::unlink(tmp.c_str());
      return io;
    }
    // Persist the rename itself.
    const size_t slash = path_.find_last_of('/');
    const std::string dir =
        (slash == std::string::npos)
            ? "."
            : (slash == 0 ? "/" : path_.substr(0, slash));
    int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
      (void)FsyncRetry(dfd);
      ::close(dfd);
    }
    ::close(fd_);
    fd_ = tfd;
    file_end_ = static_cast<off_t>(out.size());
  }

  records_.erase(records_.begin(),
                 records_.begin() + static_cast<ptrdiff_t>(dropped));
  truncated_ = target;
  if (sink_.truncations != nullptr) {
    sink_.truncations->fetch_add(1, std::memory_order_relaxed);
  }
  if (sink_.records_truncated != nullptr) {
    sink_.records_truncated->fetch_add(dropped, std::memory_order_relaxed);
  }
  return dropped;
}

LogManager::ApplyGuard::ApplyGuard(LogManager* log) : log_(log) {
  std::lock_guard<std::mutex> g(log_->mu_);
  // Lower bound: the guard is constructed before Append assigns the
  // lsn, so the operation's lsn is >= current end + 1.
  it_ = log_->applying_.insert(log_->truncated_ +
                               static_cast<Lsn>(log_->records_.size()) + 1);
}

LogManager::ApplyGuard::~ApplyGuard() {
  {
    std::lock_guard<std::mutex> g(log_->mu_);
    log_->applying_.erase(it_);
  }
  log_->apply_cv_.notify_all();
}

Lsn LogManager::OldestApplying() const {
  std::lock_guard<std::mutex> g(mu_);
  return applying_.empty() ? kNullLsn : *applying_.begin();
}

Status LogManager::WaitAppliedThrough(Lsn lsn,
                                      std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  bool drained = apply_cv_.wait_for(lk, timeout, [&] {
    return applying_.empty() || *applying_.begin() > lsn;
  });
  if (!drained) {
    return Status::TimedOut("in-flight data operations did not drain");
  }
  return Status::OK();
}

void LogManager::BindStats(const WalStatsSink& sink) {
  std::lock_guard<std::mutex> g(mu_);
  sink_ = sink;
}

void LogManager::UnbindStats(const WalStatsSink& sink) {
  std::lock_guard<std::mutex> g(mu_);
  if (sink_.appends == sink.appends && sink_.fsyncs == sink.fsyncs &&
      sink_.records_flushed == sink.records_flushed &&
      sink_.truncations == sink.truncations &&
      sink_.records_truncated == sink.records_truncated &&
      sink_.fsync_hist == sink.fsync_hist &&
      sink_.recorder == sink.recorder) {
    sink_ = WalStatsSink{};
  }
}

}  // namespace asset
