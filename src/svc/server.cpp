#include "svc/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

/// Poll granularity for stop-token checks: the loop re-checks its stop
/// condition at least this often, even if a wake-up is lost.
constexpr int kPollMillis = 100;

/// Room for two maximal frames. A consumer further behind than that is
/// dropped rather than buffered without bound.
constexpr std::size_t kMaxOutboxBytes =
    2 * (kMaxFramePayload + kFrameHeaderBytes);

/// One outbound frame, through the chaos hook that may drop, truncate or
/// corrupt it (a lost or mangled ack is what forces clients into
/// idempotent resubmission).
std::string outbound_frame(MsgType type, std::string_view payload) {
  std::string frame;
  append_frame(frame, type, payload);
  MUSK_FAULT_MUTATE("wire.server.send", frame);
  return frame;
}

}  // namespace

SocketServer::SocketServer(RebalanceService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      // Registered up front, so stats show the counter at zero.
      slow_consumer_dropped_(
          obs::registry().counter("svc.server.slow_consumer_dropped_total")) {}

SocketServer::~SocketServer() {
  stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void SocketServer::start() {
  MUSK_ASSERT_MSG(!started_, "SocketServer started twice");
  started_ = true;
  endpoint_ = parse_endpoint(config_.listen);
  listen_fd_ = listen_on(endpoint_, /*backlog=*/64);
  // Non-blocking, so the loop accepts until the backlog is empty and a
  // connection reset between poll and accept cannot block it.
  const int flags = ::fcntl(listen_fd_, F_GETFL);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) < 0 ||
      wake_fd_ < 0) {
    throw std::runtime_error("socket server: cannot set up the I/O loop");
  }
  service_.on_epoch(
      [this](const EpochReport& report) { broadcast_epoch(report); });
  thread_ = std::jthread([this](const std::stop_token& stop) { loop(stop); });
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  if (thread_.joinable()) {
    thread_.request_stop();
    ::eventfd_write(wake_fd_, 1);
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    // Best-effort cleanup of the listening socket node this server
    // bound: nothing durable lives at this path and a leftover node is
    // reclaimed by the next bind's connect-probe. A server whose bind
    // failed never owned the path, so it leaves it alone.
    if (endpoint_.is_unix)
      ::unlink(endpoint_.path.c_str());  // musk-lint: allow(unchecked-rename)
  }
  const util::OrderedLock lock(mutex_);
  for (const auto& conn : connections_) {
    append_locked(*conn, outbound_frame(MsgType::kShutdown, {}));
    flush_locked(*conn);
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
  }
  connections_.clear();
}

std::string SocketServer::endpoint() const { return to_string(endpoint_); }

void SocketServer::loop(const std::stop_token& stop) {
  // pfds[0] is the eventfd, pfds[1] the listening socket, and pfds[k + 2]
  // belongs to polled[k].
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  while (!stop.stop_requested()) {
    pfds.assign(2, pollfd{});
    pfds[0].fd = wake_fd_;
    pfds[0].events = POLLIN;
    pfds[1].fd = listen_fd_;
    pfds[1].events = POLLIN;
    polled.clear();
    {
      const util::OrderedLock lock(mutex_);
      std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
        if (!c->done) return false;
        ::close(c->fd);
        return true;
      });
      for (const auto& conn : connections_) {
        flush_locked(*conn);
        if (conn->done) continue;
        pollfd pfd{};
        pfd.fd = conn->fd;
        pfd.events =
            static_cast<short>(POLLIN | (conn->outbox.empty() ? 0 : POLLOUT));
        pfds.push_back(pfd);
        polled.push_back(conn.get());
      }
    }
    // Only this thread removes connections, so `polled` stays valid
    // while the lock is released.
    if (::poll(pfds.data(), pfds.size(), kPollMillis) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      eventfd_t signals = 0;
      ::eventfd_read(wake_fd_, &signals);
    }
    if ((pfds[1].revents & POLLIN) != 0) accept_pending();
    // A wake-up or POLLOUT needs only the flush at the top of the loop.
    for (std::size_t k = 0; k < polled.size(); ++k) {
      if ((pfds[k + 2].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        serve(*polled[k]);
      }
    }
  }
}

void SocketServer::accept_pending() {
  for (;;) {
    const int fd = accept_from(listen_fd_, endpoint_);
    if (fd < 0) return;
    const util::OrderedLock lock(mutex_);
    if (connections_.size() >=
        static_cast<std::size_t>(config_.max_connections)) {
      // Connection-level load shedding: over the cap we refuse to serve
      // another connection, but tell the client it hit a degraded
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
    connections_.push_back(std::move(conn));
  }
}

void SocketServer::serve(Connection& conn) {
  char buf[4096];
  const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
  if (n > 0) {
    try {
      conn.parser.feed(buf, static_cast<std::size_t>(n));
      while (const auto frame = conn.parser.next()) {
        handle_frame(conn, *frame);
      }
      return;
    } catch (const std::exception& error) {
      send_frame(conn, MsgType::kError, encode_error(error.what()));
    }
  }
  // The peer left, the read failed, or the client broke the protocol.
  const util::OrderedLock lock(mutex_);
  conn.done = true;
}

void SocketServer::handle_frame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello: {
      const HelloMsg hello = decode_hello(frame.payload);
      const util::OrderedLock lock(mutex_);
      conn.player = hello.player;
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

void SocketServer::send_frame(Connection& conn, MsgType type,
                              std::string_view payload) {
  const std::string frame = outbound_frame(type, payload);
  const util::OrderedLock lock(mutex_);
  append_locked(conn, frame);
  flush_locked(conn);
}

bool SocketServer::append_locked(Connection& conn, std::string_view frames) {
  mutex_.assert_held();
  if (conn.done) return false;
  if (conn.outbox.size() + frames.size() > kMaxOutboxBytes) {
    // Waiting would stall whoever appends (the clearing thread, for a
    // broadcast); buffering more would grow without bound.
    conn.done = true;
    ::shutdown(conn.fd, SHUT_RDWR);
    slow_consumer_dropped_.add(1);
    return false;
  }
  const bool was_empty = conn.outbox.empty();
  conn.outbox.append(frames);
  return was_empty;
}

void SocketServer::flush_locked(Connection& conn) {
  mutex_.assert_held();
  std::size_t sent = 0;
  while (!conn.done && sent < conn.outbox.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbox.data() + sent,
                             conn.outbox.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // the rest waits for POLLOUT
    } else if (errno != EINTR) {
      conn.done = true;
    }
  }
  conn.outbox.erase(0, sent);
}

void SocketServer::broadcast_epoch(const EpochReport& report) {
  MUSK_OBS_SPAN(span, "svc.broadcast");
  span.set_epoch(report.trace_id);
  const std::string result_payload = encode_epoch_result(report);
  const util::OrderedLock lock(mutex_);
  bool wake = false;
  for (const auto& owned : connections_) {
    Connection& conn = *owned;
    if (conn.done) continue;
    std::string frames = outbound_frame(MsgType::kEpochResult, result_payload);
    // report.notices is sorted by player.
    const auto notice = std::lower_bound(
        report.notices.begin(), report.notices.end(), conn.player,
        [](const PlayerNotice& n, core::PlayerId p) { return n.player < p; });
    if (conn.player >= 0 && notice != report.notices.end() &&
        notice->player == conn.player) {
      frames += outbound_frame(
          MsgType::kPlayerNotice,
          encode_player_notice(static_cast<std::uint32_t>(report.epoch),
                               *notice));
    }
    wake = append_locked(conn, frames) || wake;
  }
  // Only an outbox that was empty needs the signal: the loop already
  // polls a non-empty one for POLLOUT.
  if (wake) ::eventfd_write(wake_fd_, 1);
}

}  // namespace musketeer::svc
