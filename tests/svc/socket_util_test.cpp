// Socket options the service's endpoints hand out: TCP_NODELAY on both
// ends of a tcp connection, a non-blocking accepted fd, and unix
// endpoints that connect and accept without the tcp-only option.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "svc/socket_util.hpp"

namespace musketeer::svc {
namespace {

/// TCP_NODELAY as the kernel reports it, or -errno when the socket has
/// no such option.
int nodelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -errno;
  }
  return value;
}

bool non_blocking(int fd) { return (::fcntl(fd, F_GETFL) & O_NONBLOCK) != 0; }

TEST(SocketUtil, TcpConnectAndAcceptSetNodelay) {
  Endpoint endpoint = parse_endpoint("tcp:0");
  const int listen_fd = listen_on(endpoint, /*backlog=*/4);
  const int client = connect_to(endpoint);
  EXPECT_EQ(nodelay(client), 1);
  EXPECT_FALSE(non_blocking(client));  // the client blocks on purpose

  const int server = accept_from(listen_fd, endpoint);
  ASSERT_GE(server, 0);
  EXPECT_EQ(nodelay(server), 1);
  EXPECT_TRUE(non_blocking(server));
  ::close(server);
  ::close(client);
  ::close(listen_fd);
}

// Both helpers fail when setting TCP_NODELAY fails, and a unix socket
// has no such option, so a unix endpoint that connects and accepts
// proves they did not try.
TEST(SocketUtil, UnixConnectAndAcceptSkipNodelay) {
  const std::string path = ::testing::TempDir() + "musk_sockopt.sock";
  std::remove(path.c_str());
  Endpoint endpoint = parse_endpoint("unix:" + path);
  const int listen_fd = listen_on(endpoint, /*backlog=*/4);
  const int client = connect_to(endpoint);
  EXPECT_LT(nodelay(client), 0);  // no such option here

  const int server = accept_from(listen_fd, endpoint);
  ASSERT_GE(server, 0);
  EXPECT_LT(nodelay(server), 0);
  EXPECT_TRUE(non_blocking(server));
  ::close(server);
  ::close(client);
  ::close(listen_fd);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace musketeer::svc
