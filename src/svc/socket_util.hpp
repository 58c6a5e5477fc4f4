// Minimal POSIX socket helpers shared by the service's server and
// client: endpoint parsing ("tcp:PORT" on loopback, "unix:PATH"),
// listening, accepting and connecting. Every tcp stream socket they hand
// out has TCP_NODELAY set: the protocol's frames are a few dozen bytes,
// and Nagle's algorithm would hold each one back until the peer acked
// the previous segment. Functions throw std::runtime_error with errno
// context on failure unless documented otherwise.
#pragma once

#include <cstdint>
#include <string>

namespace musketeer::svc {

struct Endpoint {
  bool is_unix = false;
  std::string path;         // unix
  std::uint16_t port = 0;   // tcp (0 = ephemeral when listening)
};

/// Parses "tcp:<port>" or "unix:<path>".
Endpoint parse_endpoint(const std::string& spec);

/// Renders back to the "tcp:<port>" / "unix:<path>" form.
std::string to_string(const Endpoint& endpoint);

/// Binds and listens; returns the fd. For tcp with port 0, `endpoint`
/// is updated with the kernel-assigned port. An existing unix socket
/// path is connect-probed first: a provably stale one (dead owner) is
/// unlinked and reclaimed, a live one — or a non-socket file — makes
/// listen_on throw instead of stealing the path from its owner.
int listen_on(Endpoint& endpoint, int backlog);

/// Blocking connect; returns the fd (TCP_NODELAY on tcp).
int connect_to(const Endpoint& endpoint);

/// accept()s one pending connection on `listen_fd`, which listens on
/// `endpoint`. Returns a non-blocking fd (TCP_NODELAY on tcp), or -1
/// without throwing when nothing could be accepted.
int accept_from(int listen_fd, const Endpoint& endpoint);

/// send() the whole buffer (MSG_NOSIGNAL, EINTR-safe). Returns false on
/// a connection error instead of throwing (peers vanish routinely).
bool send_all(int fd, const char* data, std::size_t n);

}  // namespace musketeer::svc
