#include "common/sys_hooks.h"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace asset {

namespace {

inline const SysHooks* Hooks() {
  return internal::sys_hooks.load(std::memory_order_acquire);
}

ssize_t SysPread(int fd, void* buf, size_t len, off_t off) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->pread) {
    return h->pread(fd, buf, len, off);
  }
  return ::pread(fd, buf, len, off);
}

ssize_t SysPwrite(int fd, const void* buf, size_t len, off_t off) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->pwrite) {
    return h->pwrite(fd, buf, len, off);
  }
  return ::pwrite(fd, buf, len, off);
}

int SysFsync(int fd) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->fsync) {
    return h->fsync(fd);
  }
  return ::fsync(fd);
}

}  // namespace

Status PreadFully(int fd, void* buf, size_t len, off_t offset,
                  const std::string& what) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < len) {
    ssize_t n = SysPread(fd, p + done, len - done,
                         offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + what + ": " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IOError("pread " + what + ": unexpected end of file");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PwriteFully(int fd, const void* buf, size_t len, off_t offset,
                   const std::string& what) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < len) {
    ssize_t n = SysPwrite(fd, p + done, len - done,
                          offset + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + what + ": " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IOError("pwrite " + what + ": wrote 0 bytes");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncRetry(int fd) {
  while (SysFsync(fd) != 0) {
    if (errno == EINTR) continue;
    return Status::IOError("fsync: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

ssize_t SysRecv(int fd, void* buf, size_t len, int flags) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->recv) {
    return h->recv(fd, buf, len, flags);
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t SysSend(int fd, const void* buf, size_t len, int flags) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->send) {
    return h->send(fd, buf, len, flags);
  }
  return ::send(fd, buf, len, flags);
}

int SysConnect(int fd, const sockaddr* addr, socklen_t len) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->connect) {
    return h->connect(fd, addr, len);
  }
  return ::connect(fd, addr, len);
}

int SysPoll(pollfd* fds, nfds_t nfds, int timeout_ms) {
  if (const SysHooks* h = Hooks(); h != nullptr && h->poll) {
    return h->poll(fds, nfds, timeout_ms);
  }
  return ::poll(fds, nfds, timeout_ms);
}

}  // namespace asset
