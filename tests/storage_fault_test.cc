// Fault-injection tests: injected device write failures must surface as
// errors (never silent data loss), and clearing the fault must let the
// system proceed; WAL flush failures must block page write-back; EINTR
// and short pread/pwrite transfers, served through the syscall seam
// (common/sys_hooks.h), must be retried to completion on every storage
// file touch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "common/sys_hooks.h"
#include "core/database.h"
#include "core/database_internal.h"
#include "kernel_fixture.h"
#include "models/atomic.h"
#include "storage/recovery.h"

namespace asset {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(FaultTest, EvictionWritebackFailureSurfaces) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 2);  // tiny pool: eviction is immediate
  // Two dirty pages fill the pool.
  PageId p0 = pool.NewPage()->page_id();
  PageId p1 = pool.NewPage()->page_id();
  (void)p0;
  (void)p1;
  disk.SetWriteFault([](PageId) { return Status::IOError("disk on fire"); });
  // A third page needs a frame: the dirty eviction must fail loudly.
  auto third = pool.NewPage();
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kIOError);
  // Clearing the fault unblocks the pool.
  disk.SetWriteFault(nullptr);
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST(FaultTest, FlushAllPropagatesDeviceErrors) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  {
    auto h = pool.NewPage();
    h->MarkDirty();
  }
  disk.SetWriteFault([](PageId) { return Status::IOError("nope"); });
  EXPECT_EQ(pool.FlushAll().code(), StatusCode::kIOError);
  disk.SetWriteFault(nullptr);
  EXPECT_TRUE(pool.FlushAll().ok());
}

TEST(FaultTest, SelectiveFaultHitsOnlyTargetPage) {
  InMemoryDiskManager disk;
  BufferPool pool(&disk, 8);
  PageId a = pool.NewPage()->page_id();
  PageId b = pool.NewPage()->page_id();
  {
    auto ha = pool.FetchPage(a);
    ha->MarkDirty();
    auto hb = pool.FetchPage(b);
    hb->MarkDirty();
  }
  disk.SetWriteFault([a](PageId pid) {
    return pid == a ? Status::IOError("bad sector") : Status::OK();
  });
  EXPECT_TRUE(pool.FlushPage(b).ok());
  EXPECT_EQ(pool.FlushPage(a).code(), StatusCode::kIOError);
}

TEST(FaultTest, CheckpointFailsWhenDeviceFails) {
  InMemoryDiskManager disk;
  LogManager log;
  BufferPool pool(&disk, 8, &log);
  ObjectStore store(&pool);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Create(Bytes("x")).ok());
  disk.SetWriteFault([](PageId) { return Status::IOError("offline"); });
  EXPECT_FALSE(RecoveryManager::FuzzyCheckpoint(&log, &pool, nullptr).ok());
  disk.SetWriteFault(nullptr);
  EXPECT_TRUE(RecoveryManager::FuzzyCheckpoint(&log, &pool, nullptr).ok());
}

TEST(FaultTest, CommittedDataSurvivesTransientWritebackFaults) {
  // The WAL carries durability: even if page write-back faults for a
  // while (and the kernel surfaces errors), committed values are
  // recovered from the log once the device heals.
  auto db = Database::Open().value();
  ObjectId oid = kNullObjectId;
  models::RunAtomic(KernelOf(*db), [&] {
    oid = db->Create<int64_t>(31337).value();
  });
  // No page was ever flushed; crash and recover purely from the WAL.
  ASSERT_TRUE(db->CrashAndRecover(nullptr).ok());
  models::RunAtomic(KernelOf(*db), [&] {
    EXPECT_EQ(db->Get<int64_t>(oid).value(), 31337);
  });
}

// --- EINTR / short-transfer retry loops (sys_hooks + storage files) -----

TEST(IoRetryTest, PwriteFullyRetriesEintrAndShortWrites) {
  std::vector<uint8_t> dest(64, 0);
  int eintrs = 2;
  SysHooks hooks;
  hooks.pwrite = [&](int, const void* buf, size_t len, off_t off) -> ssize_t {
    if (eintrs > 0) {
      --eintrs;
      errno = EINTR;
      return -1;
    }
    size_t n = std::min<size_t>(len, 3);  // dribble 3 bytes at a time
    std::memcpy(dest.data() + off, buf, n);
    return static_cast<ssize_t>(n);
  };
  ScopedSysHooks guard(&hooks);
  std::vector<uint8_t> src(10);
  std::iota(src.begin(), src.end(), uint8_t{1});
  ASSERT_TRUE(PwriteFully(-1, src.data(), src.size(), 5, "test").ok());
  EXPECT_EQ(eintrs, 0);
  EXPECT_TRUE(std::equal(src.begin(), src.end(), dest.begin() + 5));
}

TEST(IoRetryTest, PreadFullyRetriesEintrAndShortReads) {
  std::vector<uint8_t> src(32);
  std::iota(src.begin(), src.end(), uint8_t{0});
  int eintrs = 1;
  SysHooks hooks;
  hooks.pread = [&](int, void* buf, size_t len, off_t off) -> ssize_t {
    if (eintrs > 0) {
      --eintrs;
      errno = EINTR;
      return -1;
    }
    size_t n = std::min<size_t>(len, 5);
    std::memcpy(buf, src.data() + off, n);
    return static_cast<ssize_t>(n);
  };
  ScopedSysHooks guard(&hooks);
  std::vector<uint8_t> out(16, 0xff);
  ASSERT_TRUE(PreadFully(-1, out.data(), out.size(), 8, "test").ok());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), src.begin() + 8));
}

TEST(IoRetryTest, ZeroByteTransfersAreErrorsNotLoops) {
  SysHooks hooks;
  hooks.pread = [](int, void*, size_t, off_t) -> ssize_t { return 0; };
  hooks.pwrite = [](int, const void*, size_t, off_t) -> ssize_t { return 0; };
  ScopedSysHooks guard(&hooks);
  EXPECT_EQ(PreadFully(-1, nullptr, 8, 0, "test").code(),
            StatusCode::kIOError);
  EXPECT_EQ(PwriteFully(-1, nullptr, 8, 0, "test").code(),
            StatusCode::kIOError);
}

TEST(IoRetryTest, NonEintrErrnoSurfaces) {
  SysHooks hooks;
  hooks.pwrite = [](int, const void*, size_t, off_t) -> ssize_t {
    errno = ENOSPC;
    return -1;
  };
  ScopedSysHooks guard(&hooks);
  Status s = PwriteFully(-1, nullptr, 8, 0, "device extension");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("device extension"), std::string::npos);
}

// A signal-interrupted or short page transfer must not corrupt page
// I/O: FileDiskManager retries to the full kPageSize.
TEST(FaultTest, FileDiskManagerSurvivesEintrAndShortTransfers) {
  std::string path = ::testing::TempDir() + "/asset_eintr_disk.db";
  std::remove(path.c_str());
  FileDiskManager disk(path);
  ASSERT_TRUE(disk.status().ok());

  // Wrap the real syscalls: fail every third call with EINTR, cap every
  // transfer at 1000 bytes (so each page needs several rounds).
  int calls = 0;
  SysHooks hooks;
  hooks.pread = [&](int fd, void* buf, size_t len, off_t off) -> ssize_t {
    if (++calls % 3 == 0) {
      errno = EINTR;
      return -1;
    }
    return ::pread(fd, buf, std::min<size_t>(len, 1000), off);
  };
  hooks.pwrite = [&](int fd, const void* buf, size_t len,
                     off_t off) -> ssize_t {
    if (++calls % 3 == 0) {
      errno = EINTR;
      return -1;
    }
    return ::pwrite(fd, buf, std::min<size_t>(len, 1000), off);
  };
  ScopedSysHooks guard(&hooks);

  auto pid = disk.AllocatePage();
  ASSERT_TRUE(pid.ok());
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(disk.WritePage(*pid, page.data()).ok());
  ASSERT_TRUE(disk.Sync().ok());

  std::vector<uint8_t> back(kPageSize, 0);
  ASSERT_TRUE(disk.ReadPage(*pid, back.data()).ok());
  EXPECT_EQ(back, page);

  // The faulty transport was exercised, not bypassed.
  EXPECT_GT(calls, 8);
  std::remove(path.c_str());
}

// Reattaching a log reads the whole file back. A read that is
// interrupted or short is legal and must not fail the reattach.
TEST(IoRetryTest, AttachFileRetriesEintrAndShortReads) {
  std::string path = ::testing::TempDir() + "/asset_eintr_attach.wal";
  std::remove(path.c_str());
  std::vector<LogRecord> written;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path).ok());
    for (int i = 0; i < 5; ++i) {
      LogRecord r;
      r.type = LogRecordType::kUpdate;
      r.tid = 1;
      r.oid = 10 + i;
      r.after = Bytes("value " + std::to_string(i));
      log.Append(std::move(r));
    }
    ASSERT_TRUE(log.Flush().ok());
    written = log.ReadAll();
  }

  // One EINTR first, then every read capped at 7 bytes.
  int calls = 0;
  SysHooks hooks;
  hooks.pread = [&](int fd, void* buf, size_t len, off_t off) -> ssize_t {
    if (++calls == 1) {
      errno = EINTR;
      return -1;
    }
    return ::pread(fd, buf, std::min<size_t>(len, 7), off);
  };
  LogManager log;
  {
    ScopedSysHooks guard(&hooks);
    ASSERT_TRUE(log.AttachFile(path).ok());
  }
  EXPECT_GT(calls, 2);  // the reattach read went through the seam
  std::vector<LogRecord> back = log.ReadAll();
  ASSERT_EQ(back.size(), written.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].lsn, written[i].lsn);
    EXPECT_EQ(back[i].oid, written[i].oid);
    EXPECT_EQ(back[i].after, written[i].after);
  }
  EXPECT_EQ(log.durable_lsn(), written.back().lsn);
  std::remove(path.c_str());
}

// The page file's fsync at the end of a checkpoint is retried on EINTR
// like every other storage syscall.
TEST(IoRetryTest, CheckpointSyncRetriesEintr) {
  std::string path = ::testing::TempDir() + "/asset_eintr_sync.db";
  std::remove(path.c_str());
  FileDiskManager disk(path);
  ASSERT_TRUE(disk.status().ok());
  LogManager log;  // in memory: the page file is the only fd that syncs
  BufferPool pool(&disk, 8, &log);
  ObjectStore store(&pool);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Create(Bytes("x")).ok());  // a dirty page to write back

  int eintrs = 0;
  SysHooks hooks;
  hooks.fsync = [&](int fd) {
    if (eintrs == 0) {
      ++eintrs;
      errno = EINTR;
      return -1;
    }
    return ::fsync(fd);
  };
  Result<Lsn> ckpt = Status::Internal("checkpoint not run");
  {
    ScopedSysHooks guard(&hooks);
    ckpt = RecoveryManager::FuzzyCheckpoint(&log, &pool, nullptr);
  }
  EXPECT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(eintrs, 1);  // the sync went through the seam
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asset
