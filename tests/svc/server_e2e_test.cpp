// End-to-end: in-process musketeerd, concurrent wire clients, exact
// equivalence of the settled network with a single-threaded sim run,
// whole frames under concurrent acks and broadcasts, a client that never
// reads, one I/O thread for any number of clients, and unix-socket path
// reclamation (stale sockets reclaimed, live ones and regular files
// refused).
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "core/mechanism_factory.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/socket_util.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::small_config;

constexpr int kClients = 4;
constexpr int kEpochs = 3;

std::unique_ptr<Daemon> make_daemon(const sim::SimulationConfig& config,
                                    DaemonConfig daemon_config = {}) {
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  return std::make_unique<Daemon>(
      make_network(config), core::make_mechanism("m3", {}), daemon_config);
}

// The ISSUE's acceptance test: a daemon serving >= 4 concurrent client
// threads over >= 3 epochs settles to exactly the network state of an
// equivalent single-threaded sim::Engine run with the same seed and
// mechanism. The clients submit participation refreshes (no overrides),
// so the cleared bids equal the truthful valuations the sim uses.
TEST(ServerE2E, ConcurrentClientsMatchSingleThreadedSim) {
  sim::SimulationConfig config = small_config(11);

  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);

  std::vector<Client> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(daemon->endpoint());
    clients[static_cast<std::size_t>(t)].hello(static_cast<core::PlayerId>(t));
  }

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    {
      std::vector<std::jthread> threads;
      threads.reserve(kClients);
      for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&clients, t, epoch] {
          Client& client = clients[static_cast<std::size_t>(t)];
          for (core::PlayerId p = static_cast<core::PlayerId>(t); p < 24;
               p += kClients) {
            BidSubmission bid;
            bid.player = p;
            const BidAckMsg ack = client.submit(bid);
            EXPECT_TRUE(intake_ok(ack.status))
                << "player " << p << ": " << to_string(ack.status);
            EXPECT_EQ(ack.intake_epoch, static_cast<std::uint32_t>(epoch));
          }
        });
      }
    }  // all submissions acked before the epoch clears
    const EpochReport report = daemon->service().run_epoch();
    EXPECT_EQ(report.bids_applied, 24u);

    // Every client observes the broadcast for this epoch, including the
    // settled-state digest the server computed after settlement.
    for (Client& client : clients) {
      const auto result = client.wait_epoch_at_least(
          static_cast<std::uint32_t>(epoch), std::chrono::seconds(30));
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->bids_applied, 24u);
      EXPECT_EQ(result->network_digest, report.network_digest);
    }
  }

  // Single-threaded reference: same seed, no payments, same epochs.
  config.epochs = kEpochs;
  config.payments_per_epoch = 0;
  core::M3DoubleAuction mechanism;
  sim::MechanismBackend backend(mechanism);
  pcn::Network reference(0);
  sim::run_simulation(config, &backend, &reference);

  expect_networks_equal(daemon->network_snapshot(), reference);
  // The digest the clients saw on the wire is the digest of the replay.
  EXPECT_EQ(daemon->network_snapshot().state_digest(),
            reference.state_digest());
  daemon->stop();
}

// Load shedding: submitting 2x the queue capacity of distinct players
// yields explicit kRejectedFull for the overflow and the server keeps
// serving afterwards.
TEST(ServerE2E, GracefulSheddingAtTwiceQueueCapacity) {
  const sim::SimulationConfig config = small_config(12);
  DaemonConfig daemon_config;
  daemon_config.service.queue_capacity = 8;
  auto daemon = make_daemon(config, daemon_config);
  daemon->start(/*periodic_epochs=*/false);

  Client client(daemon->endpoint());
  int accepted = 0;
  int shed = 0;
  for (core::PlayerId p = 0; p < 16; ++p) {  // 2x capacity, distinct
    BidSubmission bid;
    bid.player = p;
    const BidAckMsg ack = client.submit(bid);
    if (ack.status == IntakeStatus::kAccepted) {
      ++accepted;
    } else {
      EXPECT_EQ(ack.status, IntakeStatus::kRejectedFull);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(shed, 8);

  // Replacing a queued player's bid still works at capacity...
  BidSubmission replace;
  replace.player = 3;
  EXPECT_EQ(client.submit(replace).status, IntakeStatus::kReplaced);

  // ...and after the epoch drains the queue the server accepts again.
  EXPECT_EQ(daemon->service().run_epoch().bids_applied, 8u);
  BidSubmission fresh;
  fresh.player = 15;
  EXPECT_EQ(client.submit(fresh).status, IntakeStatus::kAccepted);
  daemon->stop();
}

TEST(ServerE2E, InvalidAndMalformedInputHandled) {
  const sim::SimulationConfig config = small_config(14);
  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);

  Client client(daemon->endpoint());
  BidSubmission bad;
  bad.player = 9999;  // out of range for a 24-node network
  EXPECT_EQ(client.submit(bad).status, IntakeStatus::kRejectedInvalid);

  BidSubmission out_of_box;
  out_of_box.player = 1;
  out_of_box.has_head = true;
  out_of_box.head_bid = 0.5;  // outside [0, kMaxFeeRate)
  EXPECT_EQ(client.submit(out_of_box).status, IntakeStatus::kRejectedInvalid);

  // A second client stays usable while the first misbehaves.
  Client good(daemon->endpoint());
  BidSubmission ok;
  ok.player = 2;
  EXPECT_TRUE(intake_ok(good.submit(ok).status));
  daemon->stop();
}

/// Epoch 0's report on an identical network, cleared by a bare service.
EpochReport probe_epoch0(const sim::SimulationConfig& config) {
  pcn::Network probe_net = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig probe_config;
  probe_config.policy = config.policy;
  RebalanceService probe(probe_net, mechanism, probe_config);
  return probe.run_epoch();
}

TEST(ServerE2E, PeriodicDaemonBroadcastsAndNotifies) {
  const sim::SimulationConfig config = small_config(15);

  // Probe an identical network to find a player that trades in epoch 0.
  const EpochReport probe_report = probe_epoch0(config);
  ASSERT_FALSE(probe_report.notices.empty()) << "seed cleared no cycles";
  const core::PlayerId trader = probe_report.notices.front().player;

  DaemonConfig daemon_config;
  daemon_config.service.epoch_period = std::chrono::milliseconds(20);
  auto daemon = make_daemon(config, daemon_config);
  daemon->start(/*periodic_epochs=*/true);

  Client client(daemon->endpoint());
  client.hello(trader);
  const auto result =
      client.wait_epoch_at_least(0, std::chrono::seconds(30));
  ASSERT_TRUE(result.has_value());

  // The trader's notice for epoch 0 arrives with the broadcast.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool notified = false;
  while (!notified && std::chrono::steady_clock::now() < deadline) {
    for (const PlayerNoticeMsg& msg : client.take_notices()) {
      if (msg.epoch == 0) {
        EXPECT_EQ(msg.notice.player, trader);
        EXPECT_EQ(msg.notice.cycles, probe_report.notices.front().cycles);
        EXPECT_DOUBLE_EQ(msg.notice.price,
                         probe_report.notices.front().price);
        notified = true;
      }
    }
    if (!notified) {
      // Pump the socket: waiting for a later epoch reads (and queues)
      // any notice frames interleaved with the broadcasts.
      client.take_epoch_results();
      client.wait_epoch_at_least(1, std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(notified);
  daemon->stop();
}

// The epoch broadcast (clearing thread) and the acks (connection
// thread) append to one connection's outbox concurrently. Every frame
// must arrive whole and in order: a torn frame fails the client's
// parser, and a result or notice out of order fails the checks below.
TEST(ServerE2E, AcksAndBroadcastsArriveAsWholeFrames) {
  const sim::SimulationConfig config = small_config(15);
  const EpochReport probe_report = probe_epoch0(config);
  ASSERT_FALSE(probe_report.notices.empty()) << "seed cleared no cycles";
  const core::PlayerId trader = probe_report.notices.front().player;

  DaemonConfig daemon_config;
  daemon_config.service.epoch_period = std::chrono::milliseconds(1);
  auto daemon = make_daemon(config, daemon_config);
  daemon->start(/*periodic_epochs=*/false);
  Client client(daemon->endpoint());
  client.hello(trader);
  client.stats();  // the hello is served before epoch 0 clears
  daemon->service().start();

  std::uint32_t next_epoch = 0;
  int notices = 0;
  int acks = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (next_epoch < 300 && std::chrono::steady_clock::now() < deadline) {
    BidSubmission bid;
    bid.player = trader;
    ASSERT_TRUE(intake_ok(client.submit(bid).status));
    ++acks;
    for (const EpochResultMsg& result : client.take_epoch_results()) {
      ASSERT_EQ(result.epoch, next_epoch);
      next_epoch = result.epoch + 1;
    }
    // A notice is appended right behind its epoch's result.
    for (const PlayerNoticeMsg& msg : client.take_notices()) {
      EXPECT_EQ(msg.notice.player, trader);
      EXPECT_LT(msg.epoch, next_epoch);
      ++notices;
    }
  }
  EXPECT_GE(next_epoch, 300u);
  EXPECT_GE(notices, 1);
  EXPECT_GT(acks, 0);
  daemon->stop();
}

// One I/O thread serves every connection: 16 clients add no thread to
// the process, and each still gets its acks and every epoch result, in
// order.
TEST(ServerE2E, SixteenClientsAddNoThread) {
  constexpr int kConnections = 16;
  constexpr int kRounds = 3;
  const sim::SimulationConfig config = small_config(18);
  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);
  const int before = testutil::thread_count();

  std::vector<Client> clients;
  clients.reserve(kConnections);
  for (int t = 0; t < kConnections; ++t) {
    clients.emplace_back(daemon->endpoint());
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kConnections; ++t) {
      BidSubmission bid;
      bid.player = static_cast<core::PlayerId>(t);
      const BidAckMsg ack =
          clients[static_cast<std::size_t>(t)].submit(bid);
      EXPECT_TRUE(intake_ok(ack.status))
          << "client " << t << ": " << to_string(ack.status);
      EXPECT_EQ(ack.intake_epoch, static_cast<std::uint32_t>(round));
    }
    // Every connection has been accepted and served by now.
    EXPECT_LE(testutil::thread_count(), before) << "round " << round;
    EXPECT_EQ(daemon->service().run_epoch().bids_applied,
              static_cast<std::size_t>(kConnections));
  }

  for (int t = 0; t < kConnections; ++t) {
    Client& client = clients[static_cast<std::size_t>(t)];
    ASSERT_TRUE(client
                    .wait_epoch_at_least(kRounds - 1, std::chrono::seconds(30))
                    .has_value())
        << "client " << t;
    const std::vector<EpochResultMsg> results = client.take_epoch_results();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kRounds))
        << "client " << t;
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(results[static_cast<std::size_t>(round)].epoch,
                static_cast<std::uint32_t>(round))
          << "client " << t;
    }
  }
  EXPECT_LE(testutil::thread_count(), before);
  daemon->stop();
}

/// Reads `fd` until EOF (true) or an error or the deadline (false).
bool reads_to_eof(int fd, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  char buf[65536];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0 && errno != EINTR) return false;
  }
  return false;
}

// A client that connects and never reads must not stop clearing. Its
// socket buffers fill after ~38k epochs of results, then its outbox;
// past the bound the server drops it and counts the drop, while a
// client that reads gets every epoch. A watchdog fails the test within
// seconds if clearing stalls instead.
TEST(ServerE2E, NeverReadingClientCannotStallClearing) {
  constexpr int kEpochs = 150000;
  sim::SimulationConfig config = small_config(21);
  config.num_nodes = 8;
  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);
  obs::Counter& dropped =
      obs::registry().counter("svc.server.slow_consumer_dropped_total");
  const std::uint64_t dropped_before = dropped.value();

  std::atomic<int> silent_fd{connect_to(parse_endpoint(daemon->endpoint()))};
  Client client(daemon->endpoint());
  client.stats();  // both connections are served before epoch 0

  std::atomic<std::uint32_t> received{0};
  std::atomic<bool> in_order{true};
  std::jthread reader([&](const std::stop_token& stop) {
    std::uint32_t next = 0;
    while (!stop.stop_requested() && !client.closed()) {
      client.wait_epoch_at_least(next, std::chrono::milliseconds(100));
      for (const EpochResultMsg& result : client.take_epoch_results()) {
        if (result.epoch != next) in_order.store(false);
        next = result.epoch + 1;
      }
      received.store(next);
    }
  });

  // Closing the silent socket with unread data resets the connection,
  // which unblocks a server stuck sending to it.
  std::atomic<int> cleared{0};
  std::atomic<bool> stalled{false};
  std::jthread watchdog([&](const std::stop_token& stop) {
    int seen = -1;
    auto progress_at = std::chrono::steady_clock::now();
    while (!stop.stop_requested()) {
      ::poll(nullptr, 0, 50);
      const auto now = std::chrono::steady_clock::now();
      if (cleared.load() != seen) {
        seen = cleared.load();
        progress_at = now;
      } else if (now - progress_at > std::chrono::seconds(3)) {
        stalled.store(true);
        const int fd = silent_fd.exchange(-1);
        if (fd >= 0) ::close(fd);
        return;
      }
    }
  });

  for (int epoch = 0; epoch < kEpochs && !stalled.load(); ++epoch) {
    daemon->service().run_epoch();
    cleared.store(epoch + 1);
  }
  watchdog.request_stop();
  watchdog.join();
  ASSERT_FALSE(stalled.load())
      << "clearing stalled after " << cleared.load() << " epochs";
  EXPECT_EQ(dropped.value() - dropped_before, 1u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (received.load() < static_cast<std::uint32_t>(kEpochs) &&
         std::chrono::steady_clock::now() < deadline) {
    ::poll(nullptr, 0, 10);
  }
  reader.request_stop();
  reader.join();
  EXPECT_EQ(received.load(), static_cast<std::uint32_t>(kEpochs));
  EXPECT_TRUE(in_order.load());

  // The dropped client still gets what the kernel held for it, then EOF.
  const int fd = silent_fd.exchange(-1);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(reads_to_eof(fd, std::chrono::seconds(30)));
  ::close(fd);
  daemon->stop();
}

TEST(ServerE2E, ShutdownClosesClients) {
  const sim::SimulationConfig config = small_config(16);
  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);
  Client client(daemon->endpoint());
  BidSubmission bid;
  bid.player = 0;
  EXPECT_TRUE(intake_ok(client.submit(bid).status));
  daemon->stop();
  // The server said kShutdown (or closed the socket); the next interaction
  // observes the closed connection rather than hanging.
  client.wait_epoch_at_least(1000, std::chrono::milliseconds(500));
  // Repeated submits against the stopped server must fail fast (shutdown
  // frame, dropped connection, or send error) instead of hanging.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) {
          client.submit(bid, std::chrono::milliseconds(100));
        }
      },
      std::runtime_error);
  EXPECT_TRUE(client.closed());
  daemon.reset();
}

std::string unix_socket_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "musk_e2e_" + name + ".sock";
  std::remove(path.c_str());
  return path;
}

std::unique_ptr<Daemon> make_unix_daemon(const sim::SimulationConfig& config,
                                         const std::string& path) {
  DaemonConfig daemon_config;
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "unix:" + path;
  return std::make_unique<Daemon>(
      make_network(config), core::make_mechanism("m3", {}), daemon_config);
}

// Binds a unix socket at `path` and closes the fd without unlinking —
// exactly the wreckage a kill -9'd daemon leaves behind. connect() to it
// yields ECONNREFUSED, which is how listen_on proves the owner is dead.
void leave_stale_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0)
      << std::strerror(errno);
  ::close(fd);
}

TEST(ServerE2E, StaleUnixSocketReclaimed) {
  const sim::SimulationConfig config = small_config(11);
  const std::string path = unix_socket_path("stale");
  leave_stale_socket(path);

  auto daemon = make_unix_daemon(config, path);
  daemon->start(/*periodic_epochs=*/false);
  Client client(daemon->endpoint());
  BidSubmission bid;
  bid.player = 0;
  EXPECT_TRUE(intake_ok(client.submit(bid).status));
  client.close();
  daemon->stop();
  daemon.reset();

  // The socket file the stopped daemon left behind is itself stale now:
  // a restart on the same path reclaims it the same way.
  auto second = make_unix_daemon(config, path);
  second->start(/*periodic_epochs=*/false);
  Client again(second->endpoint());
  EXPECT_TRUE(intake_ok(again.submit(bid).status));
  second->stop();
}

TEST(ServerE2E, LiveUnixSocketNotStolen) {
  const sim::SimulationConfig config = small_config(12);
  const std::string path = unix_socket_path("live");

  auto first = make_unix_daemon(config, path);
  first->start(/*periodic_epochs=*/false);

  // A second daemon on the same path must refuse to start rather than
  // unlink the live socket out from under the first.
  auto usurper = make_unix_daemon(config, path);
  EXPECT_THROW(usurper->start(/*periodic_epochs=*/false),
               std::runtime_error);
  // Tearing the failed daemon down leaves the path to its owner too.
  usurper.reset();

  // The first daemon is unharmed and still answering.
  Client client(first->endpoint());
  BidSubmission bid;
  bid.player = 1;
  EXPECT_TRUE(intake_ok(client.submit(bid).status));
  first->stop();
}

TEST(ServerE2E, NonSocketFileAtUnixPathRefusedAndPreserved) {
  const sim::SimulationConfig config = small_config(13);
  const std::string path = unix_socket_path("notasocket");
  {
    std::ofstream out(path);
    out << "precious user data";
  }

  auto daemon = make_unix_daemon(config, path);
  EXPECT_THROW(daemon->start(/*periodic_epochs=*/false),
               std::runtime_error);

  // The file was not unlinked or truncated.
  std::ifstream in(path);
  std::string contents;
  std::getline(in, contents);
  EXPECT_EQ(contents, "precious user data");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace musketeer::svc
