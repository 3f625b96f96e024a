#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/sys_hooks.h"
#include "storage/page.h"

namespace asset {

// ---------------------------------------------------------------------------
// InMemoryDiskManager

Status InMemoryDiskManager::ReadPage(PageId page_id, uint8_t* frame) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= pages_.size()) {
    return Status::NotFound("page " + std::to_string(page_id) +
                            " beyond device end");
  }
  std::memcpy(frame, pages_[page_id].get(), kPageSize);
  return Status::OK();
}

Status InMemoryDiskManager::WritePage(PageId page_id, const uint8_t* frame) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= pages_.size()) {
    return Status::NotFound("page " + std::to_string(page_id) +
                            " beyond device end");
  }
  if (fault_) {
    Status s = fault_(page_id);
    if (!s.ok()) return s;
  }
  std::memcpy(pages_[page_id].get(), frame, kPageSize);
  return Status::OK();
}

Result<PageId> InMemoryDiskManager::AllocatePage() {
  std::lock_guard<std::mutex> g(mu_);
  auto buf = std::make_unique<uint8_t[]>(kPageSize);
  std::memset(buf.get(), 0, kPageSize);
  pages_.push_back(std::move(buf));
  return static_cast<PageId>(pages_.size() - 1);
}

PageId InMemoryDiskManager::NumPages() const {
  std::lock_guard<std::mutex> g(mu_);
  return static_cast<PageId>(pages_.size());
}

void InMemoryDiskManager::SetWriteFault(WriteFault fault) {
  std::lock_guard<std::mutex> g(mu_);
  fault_ = std::move(fault);
}

std::vector<std::vector<uint8_t>> InMemoryDiskManager::SnapshotForTest()
    const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<std::vector<uint8_t>> out;
  out.reserve(pages_.size());
  for (const auto& p : pages_) {
    out.emplace_back(p.get(), p.get() + kPageSize);
  }
  return out;
}

void InMemoryDiskManager::RestoreForTest(
    const std::vector<std::vector<uint8_t>>& snapshot) {
  std::lock_guard<std::mutex> g(mu_);
  pages_.clear();
  for (const auto& src : snapshot) {
    auto buf = std::make_unique<uint8_t[]>(kPageSize);
    std::memcpy(buf.get(), src.data(), kPageSize);
    pages_.push_back(std::move(buf));
  }
}

// ---------------------------------------------------------------------------
// FileDiskManager

FileDiskManager::FileDiskManager(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    open_status_ =
        Status::IOError("open " + path + ": " + std::strerror(errno));
    return;
  }
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) {
    open_status_ = Status::IOError("lseek: " + std::string(strerror(errno)));
    return;
  }
  num_pages_ = static_cast<PageId>(size / kPageSize);
}

FileDiskManager::~FileDiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileDiskManager::ReadPage(PageId page_id, uint8_t* frame) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= num_pages_) {
    return Status::NotFound("page beyond device end");
  }
  // PreadFully retries EINTR and short reads — a single raw pread may
  // legally transfer fewer bytes than a page.
  return PreadFully(fd_, frame, kPageSize,
                    static_cast<off_t>(page_id) * kPageSize,
                    "page " + std::to_string(page_id));
}

Status FileDiskManager::WritePage(PageId page_id, const uint8_t* frame) {
  std::lock_guard<std::mutex> g(mu_);
  if (page_id >= num_pages_) {
    return Status::NotFound("page beyond device end");
  }
  return PwriteFully(fd_, frame, kPageSize,
                     static_cast<off_t>(page_id) * kPageSize,
                     "page " + std::to_string(page_id));
}

Result<PageId> FileDiskManager::AllocatePage() {
  std::lock_guard<std::mutex> g(mu_);
  uint8_t zeros[kPageSize];
  std::memset(zeros, 0, kPageSize);
  Status s = PwriteFully(fd_, zeros, kPageSize,
                         static_cast<off_t>(num_pages_) * kPageSize,
                         "device extension");
  if (!s.ok()) return s;
  return num_pages_++;
}

PageId FileDiskManager::NumPages() const {
  std::lock_guard<std::mutex> g(mu_);
  return num_pages_;
}

Status FileDiskManager::Sync() {
  std::lock_guard<std::mutex> g(mu_);
  return FsyncRetry(fd_);
}

}  // namespace asset
