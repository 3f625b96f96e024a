#ifndef ASSET_STORAGE_BUFFER_POOL_H_
#define ASSET_STORAGE_BUFFER_POOL_H_

/// \file buffer_pool.h
/// The shared page cache.
///
/// The paper's mode of operation is "the application operates directly on
/// the objects in a shared cache" (§4). The buffer pool is that cache:
/// fixed number of frames, pin/unpin protocol, LRU eviction of clean or
/// dirty unpinned frames (steal), and explicit flushing (no force —
/// durability comes from the WAL).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace asset {

class BufferPool;

/// RAII pin on a cached page. Move-only. The page stays resident while a
/// handle exists; call `MarkDirty()` after modifying the frame.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool Valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  /// View of the pinned frame.
  Page page() { return Page(frame_); }
  const uint8_t* frame() const { return frame_; }

  /// Records that the frame was modified; it will be written back before
  /// eviction or on flush.
  void MarkDirty();

  /// Drops the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, PageId page_id, uint8_t* frame)
      : pool_(pool), page_id_(page_id), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  uint8_t* frame_ = nullptr;
};

/// A fixed-capacity cache of pages over a DiskManager. Thread-safe.
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
  };

  /// `capacity` is the number of page frames. When `wal` is given, the
  /// pool enforces the write-ahead rule: the log is forced before any
  /// dirty page reaches the device (eviction, FlushPage, FlushAll), so a
  /// stolen page can never carry effects the log does not know about.
  BufferPool(DiskManager* disk, size_t capacity, LogManager* wal = nullptr);

  /// Pins page `page_id`, reading it from disk on a miss. Fails with
  /// ResourceExhausted if every frame is pinned. With `validate` (the
  /// default), a frame read from disk must pass Page::Validate();
  /// recovery fetches without validation to inspect possibly-unformatted
  /// pages.
  Result<PageHandle> FetchPage(PageId page_id, bool validate = true);

  /// Allocates a fresh page on the device, formats it, and returns it
  /// pinned and dirty.
  Result<PageHandle> NewPage();

  /// Writes the page back if dirty. No-op if the page is not cached.
  Status FlushPage(PageId page_id);

  /// Writes back every dirty cached page and syncs the device.
  Status FlushAll();

  /// Online variant of FlushAll for the fuzzy checkpointer: writes back
  /// every dirty *unpinned* page without blocking concurrent traffic.
  /// One WAL force (outside the pool lock) covers the batch; each page
  /// is then written under a short lock hold, skipping pages that are
  /// pinned or were re-dirtied past the forced watermark. A last pass
  /// under one lock hold forces the WAL over the re-dirtied unpinned
  /// pages and writes them too, so only pinned pages stay dirty and
  /// appear in the checkpoint's dirty-page table.
  Status FlushUnpinned();

  /// The dirty-page table: every dirty cached page with its recovery
  /// lsn (lower bound on the lsn of any update the frame carries that
  /// is not yet on disk; kNullLsn = unknown, recovery treats it as 1).
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable() const;

  /// min over the dirty-page table's recovery lsns (kNullLsn entries
  /// count as 1). kNullLsn if no page is dirty. Redo never needs to
  /// start earlier than this.
  Lsn MinRecoveryLsn() const;

  /// Simulates a crash: discards every cached frame, including dirty
  /// ones, without writing them back. Requires no outstanding pins.
  void DropAllUnflushed();

  Stats stats() const;
  size_t capacity() const { return frames_.size(); }

 private:
  friend class PageHandle;

  struct Frame {
    std::unique_ptr<uint8_t[]> data;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    /// Write-ahead watermark: the log was at this lsn when the frame was
    /// last dirtied (an upper bound on the lsn of any update the frame
    /// carries, since the log record is appended before the store
    /// mutates the page). Forcing the WAL to here — not to its end —
    /// satisfies the write-ahead rule for this page without fsyncing
    /// the unrelated log tail. kNullLsn (no WAL, or unknown) degrades
    /// to a full-log force.
    Lsn page_lsn = kNullLsn;
    /// Recovery watermark: a lower bound on the lsn of any update the
    /// frame carries that may not be on disk, set when the frame goes
    /// clean -> dirty (from the log's oldest in-flight apply bound) and
    /// kept until the frame is written back. The fuzzy checkpoint's
    /// dirty-page table carries this; redo for the page starts here.
    /// kNullLsn = unknown (dirtied outside an ApplyGuard span, e.g.
    /// during recovery itself): recovery treats it as lsn 1, which
    /// disables truncation rather than risking a lost update.
    Lsn rec_lsn = kNullLsn;
    /// Position in lru_ when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(PageId page_id, bool dirty);

  /// Forces the WAL up to `page_lsn` (entire log when kNullLsn) before a
  /// dirty page may reach the device. Caller holds mu_.
  Status ForceWalLocked(Lsn page_lsn);

  /// Forces the WAL once over every dirty frame (only the unpinned ones
  /// with `unpinned_only`) and writes those frames back. Caller holds
  /// mu_.
  Status WriteBackDirtyLocked(bool unpinned_only);

  /// Finds a free or evictable frame; caller holds mu_.
  Result<size_t> GrabFrameLocked();

  DiskManager* disk_;
  LogManager* wal_;
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = coldest
  std::unordered_map<PageId, size_t> page_table_;
  Stats stats_;
};

}  // namespace asset

#endif  // ASSET_STORAGE_BUFFER_POOL_H_
