#include "svc/server.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

/// Poll granularity for stop-token checks; every blocking socket wait
/// re-checks its stop condition at least this often.
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

SocketServer::Connection::~Connection() {
  // The thread polls both fds until it exits.
  if (thread.joinable()) {
    thread.request_stop();
    thread.join();
  }
  if (fd >= 0) ::close(fd);
  if (wake_fd >= 0) ::close(wake_fd);
}

SocketServer::SocketServer(RebalanceService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      // Registered up front, so stats show the counter at zero.
      slow_consumer_dropped_(
          obs::registry().counter("svc.server.slow_consumer_dropped_total")) {}

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
  connections.clear();
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
    std::vector<std::unique_ptr<Connection>> finished;
    {
      const util::OrderedLock lock(connections_mutex_);
      finished = take_finished_locked();
    }
    finished.clear();
    if (rc == 0) continue;
    const int fd = accept_from(listen_fd_, endpoint_);
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
    conn->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (conn->wake_fd < 0) continue;  // conn's dtor closes fd
    Connection* raw = conn.get();
    conn->thread = std::jthread(
        [this, raw](const std::stop_token& s) { connection_loop(s, raw); });
    connections_.push_back(std::move(conn));
    accepted_.fetch_add(1);
  }
}

std::vector<std::unique_ptr<SocketServer::Connection>>
SocketServer::take_finished_locked() {
  connections_mutex_.assert_held();
  const auto first_done =
      std::partition(connections_.begin(), connections_.end(),
                     [](const std::unique_ptr<Connection>& conn) {
                       return !conn->done.load();
                     });
  std::vector<std::unique_ptr<Connection>> finished(
      std::make_move_iterator(first_done),
      std::make_move_iterator(connections_.end()));
  connections_.erase(first_done, connections_.end());
  return finished;
}

void SocketServer::connection_loop(const std::stop_token& stop,
                                   Connection* conn) {
  char buf[4096];
  FrameParser parser;
  while (!stop.stop_requested() && !conn->done.load()) {
    bool pending = false;
    {
      const util::OrderedLock lock(conn->write_mutex);
      flush_locked(conn);
      pending = !conn->outbox.empty();
    }
    pollfd pfds[2]{};
    pfds[0].fd = conn->fd;
    pfds[0].events = static_cast<short>(POLLIN | (pending ? POLLOUT : 0));
    pfds[1].fd = conn->wake_fd;
    pfds[1].events = POLLIN;
    if (::poll(pfds, 2, kPollMillis) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      eventfd_t signals = 0;
      ::eventfd_read(conn->wake_fd, &signals);
    }
    // A wake-up or POLLOUT needs only the flush at the top of the loop.
    if ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
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

void SocketServer::send_frame(Connection* conn, MsgType type,
                              std::string_view payload) {
  const std::string frame = outbound_frame(type, payload);
  const util::OrderedLock lock(conn->write_mutex);
  append_locked(conn, frame);
  flush_locked(conn);
}

bool SocketServer::append_locked(Connection* conn, std::string_view frames) {
  conn->write_mutex.assert_held();
  if (conn->done.load()) return false;
  if (conn->outbox.size() + frames.size() > kMaxOutboxBytes) {
    // Waiting would stall whoever appends (the clearing thread, for a
    // broadcast); buffering more would grow without bound.
    conn->done.store(true);
    ::shutdown(conn->fd, SHUT_RDWR);
    slow_consumer_dropped_.add(1);
    return false;
  }
  const bool was_empty = conn->outbox.empty();
  conn->outbox.append(frames);
  return was_empty;
}

void SocketServer::flush_locked(Connection* conn) {
  conn->write_mutex.assert_held();
  std::size_t sent = 0;
  while (!conn->done.load() && sent < conn->outbox.size()) {
    const ssize_t n = ::send(conn->fd, conn->outbox.data() + sent,
                             conn->outbox.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;  // the rest waits for POLLOUT
    } else if (errno != EINTR) {
      conn->done.store(true);
    }
  }
  conn->outbox.erase(0, sent);
}

void SocketServer::broadcast_epoch(const EpochReport& report) {
  MUSK_OBS_SPAN(span, "svc.broadcast");
  span.set_epoch(report.trace_id);
  const std::string result_payload = encode_epoch_result(report);
  const util::OrderedLock lock(connections_mutex_);
  for (const auto& owned : connections_) {
    Connection* conn = owned.get();
    if (conn->done.load()) continue;
    std::string frames = outbound_frame(MsgType::kEpochResult, result_payload);
    // report.notices is sorted by player.
    const core::PlayerId player = conn->player.load();
    const auto notice = std::lower_bound(
        report.notices.begin(), report.notices.end(), player,
        [](const PlayerNotice& n, core::PlayerId p) { return n.player < p; });
    if (player >= 0 && notice != report.notices.end() &&
        notice->player == player) {
      frames += outbound_frame(
          MsgType::kPlayerNotice,
          encode_player_notice(static_cast<std::uint32_t>(report.epoch),
                               *notice));
    }
    bool wake = false;
    {
      const util::OrderedLock write_lock(conn->write_mutex);
      wake = append_locked(conn, frames);
    }
    // Only an empty outbox needs the signal: a non-empty one is already
    // being flushed, or waits for POLLOUT.
    if (wake) ::eventfd_write(conn->wake_fd, 1);
  }
}

}  // namespace musketeer::svc
