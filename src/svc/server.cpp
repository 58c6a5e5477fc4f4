#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

/// Poll granularity for stop-token checks; every blocking socket wait
/// re-checks its stop condition at least this often.
constexpr int kPollMillis = 100;

}  // namespace

SocketServer::SocketServer(RebalanceService& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  MUSK_ASSERT_MSG(!started_, "SocketServer started twice");
  started_ = true;
  endpoint_ = parse_endpoint(config_.listen);
  listen_fd_ = listen_on(endpoint_, /*backlog=*/64);
  service_.on_epoch(
      [this](const EpochReport& report) { broadcast_epoch(report); });
  accept_thread_ = std::jthread(
      [this](const std::stop_token& stop) { accept_loop(stop); });
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  if (accept_thread_.joinable()) {
    accept_thread_.request_stop();
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const util::OrderedLock lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections) {
    send_frame(conn.get(), MsgType::kShutdown, {});
    conn->thread.request_stop();
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  // Best-effort cleanup of the listening socket node: nothing durable
  // lives at this path and a leftover node is reclaimed by the next
  // bind's connect-probe.
  if (started_ && endpoint_.is_unix)
    ::unlink(endpoint_.path.c_str());  // musk-lint: allow(unchecked-rename)
}

std::string SocketServer::endpoint() const { return to_string(endpoint_); }

void SocketServer::accept_loop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, kPollMillis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      const util::OrderedLock lock(connections_mutex_);
      prune_finished_locked();
    }
    if (rc == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const util::OrderedLock lock(connections_mutex_);
    if (connections_.size() >=
        static_cast<std::size_t>(config_.max_connections)) {
      // Connection-level load shedding: over the cap we refuse to queue
      // another handler thread, but tell the client it hit a degraded
      // server, not a dead one — best-effort retry-after frame, then
      // close.
      ErrorMsg shed;
      shed.code = ErrorCode::kRetryAfter;
      // The hint scales with the service's shed level: a server that is
      // both connection-full and epoch-degraded wants clients to back
      // off much harder than one that is merely popular.
      shed.retry_after_ms = service_.retry_after_hint(
          static_cast<std::uint32_t>(config_.shed_retry_after_ms));
      shed.message = "server at connection capacity";
      std::string frame;
      append_frame(frame, MsgType::kError, encode_error(shed));
      send_all(fd, frame.data(), frame.size());
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::jthread(
        [this, raw](const std::stop_token& s) { connection_loop(s, raw); });
    connections_.push_back(std::move(conn));
    accepted_.fetch_add(1);
  }
}

void SocketServer::prune_finished_locked() {
  connections_mutex_.assert_held();
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
    if (!conn->done.load()) return false;
    ::close(conn->fd);
    return true;  // unique_ptr dtor joins the (finished) jthread
  });
}

void SocketServer::connection_loop(const std::stop_token& stop,
                                   Connection* conn) {
  char buf[4096];
  FrameParser parser;
  while (!stop.stop_requested()) {
    pollfd pfd{};
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, kPollMillis);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    try {
      parser.feed(buf, static_cast<std::size_t>(n));
      while (const auto frame = parser.next()) {
        handle_frame(conn, *frame);
      }
    } catch (const std::exception& error) {
      send_frame(conn, MsgType::kError, encode_error(error.what()));
      break;
    }
  }
  conn->done.store(true);
}

void SocketServer::handle_frame(Connection* conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      const HelloMsg hello = decode_hello(frame.payload);
      conn->player.store(hello.player);
      return;
    }
    case MsgType::kSubmitBid: {
      const BidSubmission bid = decode_submit_bid(frame.payload);
      BidAckMsg ack;
      ack.client_tag = bid.client_tag;
      ack.seq = bid.seq;
      ack.intake_epoch =
          static_cast<std::uint32_t>(service_.epochs_cleared());
      ack.status = service_.submit(bid);
      if (ack.status == IntakeStatus::kRejectedOverload) {
        // Bid-level load shedding: instead of an ack the client gets a
        // retry-after whose hint is scaled by the shed level, so a
        // degrading server pushes its herd back exponentially.
        ErrorMsg shed;
        shed.code = ErrorCode::kRetryAfter;
        shed.retry_after_ms = service_.retry_after_hint(
            static_cast<std::uint32_t>(config_.shed_retry_after_ms));
        shed.message = "bid shed: service overloaded";
        send_frame(conn, MsgType::kError, encode_error(shed));
        return;
      }
      send_frame(conn, MsgType::kBidAck, encode_bid_ack(ack));
      return;
    }
    case MsgType::kStatsRequest: {
      if (!frame.payload.empty()) {
        throw WireError("non-empty stats-request payload");
      }
      const StatsResponseMsg msg{service_.stats_snapshot(),
                                 obs::registry().to_json()};
      send_frame(conn, MsgType::kStatsResponse, encode_stats_response(msg));
      return;
    }
    default:
      throw WireError("unexpected client message type " +
                      std::to_string(static_cast<int>(frame.type)));
  }
}

bool SocketServer::send_frame(Connection* conn, MsgType type,
                              std::string_view payload) {
  std::string frame;
  append_frame(frame, type, payload);
  // Chaos hook: drop/truncate/corrupt the outbound frame (a lost or
  // mangled ack is what forces clients into idempotent resubmission).
  MUSK_FAULT_MUTATE("wire.server.send", frame);
  const util::OrderedLock lock(conn->write_mutex);
  if (conn->done.load()) return false;
  if (!send_all(conn->fd, frame.data(), frame.size())) {
    conn->done.store(true);
    return false;
  }
  return true;
}

void SocketServer::broadcast_epoch(const EpochReport& report) {
  MUSK_OBS_SPAN(span, "svc.broadcast");
  span.set_epoch(report.trace_id);
  const std::string result_payload = encode_epoch_result(report);
  const util::OrderedLock lock(connections_mutex_);
  for (const auto& conn : connections_) {
    if (conn->done.load()) continue;
    send_frame(conn.get(), MsgType::kEpochResult, result_payload);
    const core::PlayerId player = conn->player.load();
    if (player < 0) continue;
    for (const PlayerNotice& notice : report.notices) {
      if (notice.player == player) {
        send_frame(conn.get(), MsgType::kPlayerNotice,
                   encode_player_notice(
                       static_cast<std::uint32_t>(report.epoch), notice));
        break;
      }
    }
  }
}

}  // namespace musketeer::svc
