#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace asset {

// ---------------------------------------------------------------------------
// PageHandle

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
    other.page_id_ = kInvalidPageId;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  if (pool_ != nullptr) {
    // Sample the log position before taking the pool lock (lock order:
    // callers never hold the log mutex here). The store appends the
    // operation's log record before mutating the frame, so last_lsn()
    // at MarkDirty time upper-bounds every update this frame carries.
    Lsn lsn = pool_->wal_ != nullptr ? pool_->wal_->last_lsn() : kNullLsn;
    // Lower bound for the recovery watermark: the dirtying operation
    // holds an ApplyGuard registered before its record was appended, so
    // the oldest in-flight apply bound is <= this operation's lsn.
    // kNullLsn (no guard in flight — e.g. recovery redo) means unknown.
    Lsn hint = pool_->wal_ != nullptr ? pool_->wal_->OldestApplying()
                                      : kNullLsn;
    std::lock_guard<std::mutex> g(pool_->mu_);
    auto it = pool_->page_table_.find(page_id_);
    if (it != pool_->page_table_.end()) {
      BufferPool::Frame& f = pool_->frames_[it->second];
      if (!f.dirty) f.rec_lsn = hint;
      f.dirty = true;
      f.page_lsn = std::max(f.page_lsn, lsn);
    }
  }
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(page_id_, /*dirty=*/false);
    pool_ = nullptr;
    frame_ = nullptr;
    page_id_ = kInvalidPageId;
  }
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(DiskManager* disk, size_t capacity, LogManager* wal)
    : disk_(disk), wal_(wal) {
  frames_.resize(capacity);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(capacity - 1 - i);
  }
}

Result<size_t> BufferPool::GrabFrameLocked() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  size_t idx = lru_.front();
  lru_.pop_front();
  Frame& f = frames_[idx];
  f.in_lru = false;
  assert(f.pin_count == 0);
  if (f.dirty) {
    // Write-ahead rule: no dirty page reaches the device before the log
    // records covering it — up to page_lsn, not the whole tail.
    Status ws = ForceWalLocked(f.page_lsn);
    if (!ws.ok()) {
      f.lru_pos = lru_.insert(lru_.begin(), idx);
      f.in_lru = true;
      return ws;
    }
    Page(f.data.get()).UpdateChecksum();
    Status s = disk_->WritePage(f.page_id, f.data.get());
    if (!s.ok()) {
      // Put the frame back; the page must not be silently lost.
      f.lru_pos = lru_.insert(lru_.begin(), idx);
      f.in_lru = true;
      return s;
    }
    stats_.dirty_writebacks++;
  }
  page_table_.erase(f.page_id);
  f.page_id = kInvalidPageId;
  f.dirty = false;
  f.page_lsn = kNullLsn;
  f.rec_lsn = kNullLsn;
  stats_.evictions++;
  return idx;
}

Status BufferPool::ForceWalLocked(Lsn page_lsn) {
  if (wal_ == nullptr) return Status::OK();
  // kNullLsn means "watermark unknown": force everything (conservative).
  return wal_->Flush(page_lsn);
}

Result<PageHandle> BufferPool::FetchPage(PageId page_id, bool validate) {
  std::unique_lock<std::mutex> g(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame& f = frames_[it->second];
    if (f.pin_count == 0 && f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.pin_count++;
    stats_.hits++;
    return PageHandle(this, page_id, f.data.get());
  }
  stats_.misses++;
  auto frame_idx = GrabFrameLocked();
  if (!frame_idx.ok()) return frame_idx.status();
  Frame& f = frames_[*frame_idx];
  // Read outside the lock would allow higher concurrency; we keep the
  // lock for simplicity — the disk managers here are memory-speed.
  Status s = disk_->ReadPage(page_id, f.data.get());
  if (!s.ok()) {
    free_frames_.push_back(*frame_idx);
    return s;
  }
  if (validate) {
    Status valid = Page(f.data.get()).Validate();
    if (!valid.ok()) {
      free_frames_.push_back(*frame_idx);
      return valid;
    }
  }
  f.page_id = page_id;
  f.pin_count = 1;
  f.dirty = false;
  f.page_lsn = kNullLsn;
  f.rec_lsn = kNullLsn;
  page_table_[page_id] = *frame_idx;
  return PageHandle(this, page_id, f.data.get());
}

Result<PageHandle> BufferPool::NewPage() {
  std::unique_lock<std::mutex> g(mu_);
  auto page_id = disk_->AllocatePage();
  if (!page_id.ok()) return page_id.status();
  auto frame_idx = GrabFrameLocked();
  if (!frame_idx.ok()) return frame_idx.status();
  Frame& f = frames_[*frame_idx];
  Page p(f.data.get());
  p.Init(*page_id);
  f.page_id = *page_id;
  f.pin_count = 1;
  f.dirty = true;
  f.page_lsn = wal_ != nullptr ? wal_->last_lsn() : kNullLsn;
  f.rec_lsn = wal_ != nullptr ? wal_->OldestApplying() : kNullLsn;
  page_table_[*page_id] = *frame_idx;
  return PageHandle(this, *page_id, f.data.get());
}

void BufferPool::Unpin(PageId page_id, bool dirty) {
  Lsn lsn = (dirty && wal_ != nullptr) ? wal_->last_lsn() : kNullLsn;
  Lsn hint = (dirty && wal_ != nullptr) ? wal_->OldestApplying() : kNullLsn;
  std::lock_guard<std::mutex> g(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return;
  Frame& f = frames_[it->second];
  assert(f.pin_count > 0);
  if (dirty) {
    if (!f.dirty) f.rec_lsn = hint;
    f.dirty = true;
    f.page_lsn = std::max(f.page_lsn, lsn);
  }
  f.pin_count--;
  if (f.pin_count == 0) {
    f.lru_pos = lru_.insert(lru_.end(), it->second);
    f.in_lru = true;
  }
}

Status BufferPool::FlushPage(PageId page_id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return Status::OK();
  Frame& f = frames_[it->second];
  if (!f.dirty) return Status::OK();
  ASSET_RETURN_NOT_OK(ForceWalLocked(f.page_lsn));
  Page(f.data.get()).UpdateChecksum();
  ASSET_RETURN_NOT_OK(disk_->WritePage(page_id, f.data.get()));
  f.dirty = false;
  f.page_lsn = kNullLsn;
  f.rec_lsn = kNullLsn;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> g(mu_);
  ASSET_RETURN_NOT_OK(WriteBackDirtyLocked(/*unpinned_only=*/false));
  return disk_->Sync();
}

Status BufferPool::WriteBackDirtyLocked(bool unpinned_only) {
  // One WAL force covering every chosen frame (the max watermark), then
  // the writebacks. Any frame with an unknown watermark forces the
  // whole log.
  std::vector<Frame*> dirty;
  bool unknown = false;
  Lsn max_lsn = kNullLsn;
  for (Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty &&
        (!unpinned_only || f.pin_count == 0)) {
      dirty.push_back(&f);
      if (f.page_lsn == kNullLsn) unknown = true;
      max_lsn = std::max(max_lsn, f.page_lsn);
    }
  }
  if (dirty.empty()) return Status::OK();
  ASSET_RETURN_NOT_OK(ForceWalLocked(unknown ? kNullLsn : max_lsn));
  for (Frame* f : dirty) {
    Page(f->data.get()).UpdateChecksum();
    ASSET_RETURN_NOT_OK(disk_->WritePage(f->page_id, f->data.get()));
    f->dirty = false;
    f->page_lsn = kNullLsn;
    f->rec_lsn = kNullLsn;
    stats_.dirty_writebacks++;
  }
  return Status::OK();
}

Status BufferPool::FlushUnpinned() {
  // Phase 1: collect the dirty set and its covering watermark.
  std::vector<PageId> targets;
  bool unknown = false;
  Lsn max_lsn = kNullLsn;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const Frame& f : frames_) {
      if (f.page_id != kInvalidPageId && f.dirty) {
        targets.push_back(f.page_id);
        if (f.page_lsn == kNullLsn) unknown = true;
        max_lsn = std::max(max_lsn, f.page_lsn);
      }
    }
  }
  if (targets.empty()) return Status::OK();
  // Phase 2: one WAL force, outside the pool lock — appenders, pinners
  // and committers keep running while the log syncs.
  Lsn forced = kNullLsn;
  if (wal_ != nullptr) {
    ASSET_RETURN_NOT_OK(wal_->Flush(unknown ? kNullLsn : max_lsn));
    forced = wal_->durable_lsn();
  }
  // Phase 3: write back each target under a short lock hold. A page
  // that is pinned, or was re-dirtied past the forced watermark, is
  // skipped here. Holding mu_ across the write is what makes the copy
  // safe: mutators need a pin, pins need mu_, and pin_count is 0.
  for (PageId pid : targets) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = page_table_.find(pid);
    if (it == page_table_.end()) continue;  // evicted meanwhile
    Frame& f = frames_[it->second];
    if (!f.dirty || f.pin_count > 0) continue;
    if (wal_ != nullptr && f.page_lsn > forced) continue;
    Page(f.data.get()).UpdateChecksum();
    ASSET_RETURN_NOT_OK(disk_->WritePage(f.page_id, f.data.get()));
    f.dirty = false;
    f.page_lsn = kNullLsn;
    f.rec_lsn = kNullLsn;
    stats_.dirty_writebacks++;
  }
  // Phase 4: a hot page re-dirtied during the force would otherwise
  // stay in the dirty-page table with its old rec_lsn and hold WAL
  // truncation back for a whole checkpoint interval. Under one lock
  // hold (no pin can start), force the WAL once more over the dirty
  // unpinned pages and write them back. Only pinned pages are left for
  // the dirty-page table.
  {
    std::lock_guard<std::mutex> g(mu_);
    ASSET_RETURN_NOT_OK(WriteBackDirtyLocked(/*unpinned_only=*/true));
  }
  return disk_->Sync();
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::pair<PageId, Lsn>> out;
  for (const Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty) {
      out.emplace_back(f.page_id, f.rec_lsn);
    }
  }
  return out;
}

Lsn BufferPool::MinRecoveryLsn() const {
  std::lock_guard<std::mutex> g(mu_);
  Lsn min_lsn = kNullLsn;
  for (const Frame& f : frames_) {
    if (f.page_id != kInvalidPageId && f.dirty) {
      Lsn r = (f.rec_lsn == kNullLsn) ? 1 : f.rec_lsn;
      min_lsn = (min_lsn == kNullLsn) ? r : std::min(min_lsn, r);
    }
  }
  return min_lsn;
}

void BufferPool::DropAllUnflushed() {
  std::lock_guard<std::mutex> g(mu_);
  lru_.clear();
  page_table_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    assert(f.pin_count == 0 && "DropAllUnflushed with outstanding pins");
    f.page_id = kInvalidPageId;
    f.dirty = false;
    f.page_lsn = kNullLsn;
    f.rec_lsn = kNullLsn;
    f.in_lru = false;
    free_frames_.push_back(frames_.size() - 1 - i);
  }
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  return stats_;
}

}  // namespace asset
