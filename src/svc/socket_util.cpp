#include "svc/socket_util.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Turns Nagle's algorithm off on a tcp socket. Unix sockets have no
/// Nagle, so they are left alone (the option does not exist there).
bool set_nodelay(int fd, const Endpoint& endpoint) {
  if (endpoint.is_unix) return true;
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

sockaddr_in tcp_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Decides whether an existing unix socket path may be unlinked before
/// bind. Unconditional unlinking lets two daemons racing on startup
/// silently steal each other's socket; instead, probe it:
///   * path absent                -> nothing to clean up;
///   * path is not a socket       -> refuse (never unlink a user's file);
///   * connect succeeds           -> a live daemon owns it: refuse, the
///                                   bind caller reports address-in-use;
///   * connect refused / ENOENT   -> stale leftover of a dead process,
///                                   safe to remove.
void remove_stale_unix_socket(const std::string& path) {
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return;
    fail("stat " + path);
  }
  if (!S_ISSOCK(st.st_mode)) {
    throw std::runtime_error("refusing to bind " + path +
                             ": exists and is not a socket");
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) fail("socket");
  const sockaddr_un addr = unix_addr(path);
  const int rc =
      ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int connect_errno = errno;
  ::close(probe);
  if (rc == 0) {
    throw std::runtime_error("refusing to bind " + path +
                             ": a live daemon is accepting on it");
  }
  if (connect_errno == ECONNREFUSED || connect_errno == ENOENT) {
    // Dead owner: the kernel refuses connections to an unlinked-in-
    // spirit socket whose listener is gone. Reclaim the path.
    // Checked inline; not the journal publication protocol — socket
    // nodes carry no data, so no fsync dance is owed here.
    if (::unlink(path.c_str()) != 0  // musk-lint: allow(unchecked-rename)
        && errno != ENOENT) {
      fail("unlink stale socket " + path);
    }
    return;
  }
  errno = connect_errno;
  fail("probe " + path);
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("unix:", 0) == 0) {
    endpoint.is_unix = true;
    endpoint.path = spec.substr(5);
    if (endpoint.path.empty()) {
      throw std::runtime_error("empty unix socket path in '" + spec + "'");
    }
    return endpoint;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string port = spec.substr(4);
    char* end = nullptr;
    const long value = std::strtol(port.c_str(), &end, 10);
    if (port.empty() || *end != '\0' || value < 0 || value > 65535) {
      throw std::runtime_error("bad tcp port in '" + spec + "'");
    }
    endpoint.port = static_cast<std::uint16_t>(value);
    return endpoint;
  }
  throw std::runtime_error("endpoint must be tcp:<port> or unix:<path>, got '" +
                           spec + "'");
}

std::string to_string(const Endpoint& endpoint) {
  return endpoint.is_unix ? "unix:" + endpoint.path
                          : "tcp:" + std::to_string(endpoint.port);
}

int listen_on(Endpoint& endpoint, int backlog) {
  const int fd =
      ::socket(endpoint.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  if (endpoint.is_unix) {
    try {
      remove_stale_unix_socket(endpoint.path);
    } catch (...) {
      ::close(fd);
      throw;
    }
    const sockaddr_un addr = unix_addr(endpoint.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      fail("bind " + endpoint.path);
    }
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = tcp_addr(endpoint.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      fail("bind tcp:" + std::to_string(endpoint.port));
    }
    if (endpoint.port == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
        ::close(fd);
        fail("getsockname");
      }
      endpoint.port = ntohs(bound.sin_port);
    }
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    fail("listen");
  }
  return fd;
}

int connect_to(const Endpoint& endpoint) {
  if (MUSK_FAULT_FAIL("sock.connect")) {
    errno = ECONNREFUSED;
    fail("connect " + to_string(endpoint) + " (injected)");
  }
  const int fd =
      ::socket(endpoint.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  int rc;
  if (endpoint.is_unix) {
    const sockaddr_un addr = unix_addr(endpoint.path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    const sockaddr_in addr = tcp_addr(endpoint.port);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc < 0) {
    ::close(fd);
    fail("connect " + to_string(endpoint));
  }
  if (!set_nodelay(fd, endpoint)) {
    ::close(fd);
    fail("setsockopt TCP_NODELAY");
  }
  return fd;
}

int accept_from(int listen_fd, const Endpoint& endpoint) {
  const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd < 0) return -1;
  if (!set_nodelay(fd, endpoint)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

}  // namespace musketeer::svc
