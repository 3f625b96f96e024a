#ifndef ASSET_COMMON_SYS_HOOKS_H_
#define ASSET_COMMON_SYS_HOOKS_H_

/// \file sys_hooks.h
/// The one fault-injection seam: every syscall the storage layer and
/// the network front door make goes through this file.
///
///  - Disk: every WAL and page-file touch uses PreadFully / PwriteFully
///    / FsyncRetry. POSIX allows any transfer to be interrupted by a
///    signal (EINTR) or to move fewer bytes than asked; neither is an
///    error, so the retry discipline lives here, once.
///  - Network: every recv/send/connect/poll of the server and client
///    uses SysRecv / SysSend / SysConnect / SysPoll, which do not retry
///    (the event loops handle EAGAIN/EINTR themselves).
///
/// A test installs a SysHooks struct to serve EINTR, short transfers,
/// stalls, resets, and I/O errors deterministically — no real signal
/// storm, no traffic shaping, no failing disk. Installation is
/// process-global (one atomic pointer) because the interesting faults
/// span threads: both ends of a loopback pair, every server worker, and
/// the WAL flush leader. So a hook sees every fd in the process; a test
/// that mixes several files or sockets filters on the fd or on call
/// order. A hook implementation must be thread-safe. Production code
/// never installs hooks; with none installed each call costs one atomic
/// load more than the raw syscall.
///
/// A hook that is installed but leaves a member empty falls through to
/// the real syscall for that operation — tests override only what they
/// break.

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

#include "common/status.h"

namespace asset {

/// Signature-compatible stand-ins for the syscalls. Each returns the
/// syscall's result and communicates failure via errno, exactly like
/// the real thing.
struct SysHooks {
  std::function<ssize_t(int fd, void* buf, size_t len, off_t off)> pread;
  std::function<ssize_t(int fd, const void* buf, size_t len, off_t off)>
      pwrite;
  std::function<int(int fd)> fsync;
  std::function<ssize_t(int fd, void* buf, size_t len, int flags)> recv;
  std::function<ssize_t(int fd, const void* buf, size_t len, int flags)> send;
  std::function<int(int fd, const sockaddr* addr, socklen_t len)> connect;
  std::function<int(pollfd* fds, nfds_t nfds, int timeout_ms)> poll;
};

namespace internal {
inline std::atomic<const SysHooks*> sys_hooks{nullptr};
}  // namespace internal

/// Reads exactly `len` bytes at `offset`, retrying EINTR and short
/// reads. IOError (naming `what`) on a real failure or if end-of-file
/// arrives before `len` bytes.
Status PreadFully(int fd, void* buf, size_t len, off_t offset,
                  const std::string& what);

/// Writes exactly `len` bytes at `offset`, retrying EINTR and short
/// writes. IOError (naming `what`) on a real failure or a persistent
/// zero-byte write.
Status PwriteFully(int fd, const void* buf, size_t len, off_t offset,
                   const std::string& what);

/// fsync, retrying EINTR.
Status FsyncRetry(int fd);

/// ::recv unless a recv hook is installed.
ssize_t SysRecv(int fd, void* buf, size_t len, int flags);
/// ::send unless a send hook is installed.
ssize_t SysSend(int fd, const void* buf, size_t len, int flags);
/// ::connect unless a connect hook is installed.
int SysConnect(int fd, const sockaddr* addr, socklen_t len);
/// ::poll unless a poll hook is installed.
int SysPoll(pollfd* fds, nfds_t nfds, int timeout_ms);

/// Installs `hooks` process-wide for the lifetime of the guard.
/// `hooks` must outlive the guard; in-flight calls may still be
/// executing a hook briefly after destruction, so a test must join its
/// traffic (stop servers, destroy clients, close databases) before
/// destroying the hook object itself.
class ScopedSysHooks {
 public:
  explicit ScopedSysHooks(const SysHooks* hooks)
      : prev_(internal::sys_hooks.exchange(hooks, std::memory_order_acq_rel)) {}
  ~ScopedSysHooks() {
    internal::sys_hooks.store(prev_, std::memory_order_release);
  }

  ScopedSysHooks(const ScopedSysHooks&) = delete;
  ScopedSysHooks& operator=(const ScopedSysHooks&) = delete;

 private:
  const SysHooks* prev_;
};

}  // namespace asset

#endif  // ASSET_COMMON_SYS_HOOKS_H_
