#ifndef ASSET_STORAGE_DISK_MANAGER_H_
#define ASSET_STORAGE_DISK_MANAGER_H_

/// \file disk_manager.h
/// Page-granular stable storage.
///
/// Two implementations: an in-memory one for tests/benchmarks (with a
/// fault-injection hook so recovery tests can simulate crashes at exact
/// write boundaries), and a POSIX-file one for real persistence.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"

namespace asset {

/// Abstract page-granular storage device. All methods are thread-safe.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Reads page `page_id` into `frame` (kPageSize bytes).
  virtual Status ReadPage(PageId page_id, uint8_t* frame) = 0;

  /// Writes `frame` (kPageSize bytes) to page `page_id`.
  virtual Status WritePage(PageId page_id, const uint8_t* frame) = 0;

  /// Extends the device by one page and returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  /// Number of pages allocated so far.
  virtual PageId NumPages() const = 0;

  /// Forces previously written pages to stable storage.
  virtual Status Sync() = 0;
};

/// RAM-backed device. Pages survive "crashes" that drop caches but not
/// process exit — exactly what recovery unit tests need.
class InMemoryDiskManager : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  Status ReadPage(PageId page_id, uint8_t* frame) override;
  Status WritePage(PageId page_id, const uint8_t* frame) override;
  Result<PageId> AllocatePage() override;
  PageId NumPages() const override;
  Status Sync() override { return Status::OK(); }

  /// When set, every write first consults the hook; a non-OK return is
  /// surfaced to the caller and the write is dropped (simulating a crash
  /// or I/O error mid-stream).
  using WriteFault = std::function<Status(PageId)>;
  void SetWriteFault(WriteFault fault);

  /// Deep copy of the device contents. The crash-point fuzzer pairs
  /// these with WAL prefixes to rebuild the exact disk a crash would
  /// have left behind.
  std::vector<std::vector<uint8_t>> SnapshotForTest() const;
  /// Replaces the device contents with `snapshot`.
  void RestoreForTest(const std::vector<std::vector<uint8_t>>& snapshot);

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  WriteFault fault_;
};

/// POSIX-file-backed device. The file grows in page units.
class FileDiskManager : public DiskManager {
 public:
  /// Opens (creating if needed) `path`. Check `status()` after
  /// construction.
  explicit FileDiskManager(const std::string& path);
  ~FileDiskManager() override;

  /// Result of opening the backing file.
  const Status& status() const { return open_status_; }

  Status ReadPage(PageId page_id, uint8_t* frame) override;
  Status WritePage(PageId page_id, const uint8_t* frame) override;
  Result<PageId> AllocatePage() override;
  PageId NumPages() const override;
  Status Sync() override;

 private:
  mutable std::mutex mu_;
  Status open_status_;
  int fd_ = -1;
  PageId num_pages_ = 0;
};

}  // namespace asset

#endif  // ASSET_STORAGE_DISK_MANAGER_H_
