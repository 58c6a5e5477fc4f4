// Socket front end of the rebalancing service.
//
// One accept thread plus one thread per connection, all jthreads with
// stop-token-aware poll loops (no detach, no naked sleeps — the repo
// lint enforces it). Connections speak the framed protocol in
// svc/wire.hpp: bids are dispatched straight into the service's intake
// queue and acked with the IntakeStatus; after every settled epoch the
// server broadcasts the epoch result to all connections and a targeted
// PlayerNotice to each connection that Hello'd a participating player.
//
// Writes never block. Accepted sockets are non-blocking and, on tcp,
// have TCP_NODELAY set. Every outbound frame is appended whole to its
// connection's bounded outbox. A connection's own thread appends and
// flushes its acks and stats responses at once. The epoch broadcast
// runs on the clearing thread, so it only appends and wakes each
// connection's thread through an eventfd; that thread does the sending.
// A client that lets its outbox grow past kMaxOutboxBytes (two maximal
// frames) is dropped and counted in
// svc.server.slow_consumer_dropped_total, so no client can stall a
// clear.
//
// A malformed frame (bad magic, oversized length, truncated record)
// earns the client a best-effort kError frame and a closed connection —
// one bad client never poisons the service.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/service.hpp"
#include "svc/socket_util.hpp"
#include "svc/wire.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::svc {

struct ServerConfig {
  /// "tcp:<port>" (loopback; 0 = ephemeral) or "unix:<path>".
  std::string listen = "tcp:0";
  /// Accepted connections beyond this are shed: the server sends a
  /// structured kError{kRetryAfter} frame and closes, so a well-behaved
  /// client backs off and retries instead of seeing a silent hangup.
  int max_connections = 64;
  /// Backoff hint carried in the shed frame.
  int shed_retry_after_ms = 200;
};

class SocketServer {
 public:
  /// Registers the epoch-broadcast callback on `service`, so the server
  /// must be constructed (and start()ed) before service.start().
  SocketServer(RebalanceService& service, ServerConfig config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Throws on bind
  /// failure. After return, endpoint() names the resolved address.
  void start();

  /// Sends kShutdown to every connection (best effort, without
  /// blocking), closes all sockets, joins all threads. Idempotent.
  void stop();

  /// Resolved listen address ("tcp:<real-port>" / "unix:<path>").
  std::string endpoint() const;

  std::size_t connections_accepted() const { return accepted_.load(); }

 private:
  struct Connection {
    Connection() = default;
    /// Joins the thread, then closes both fds.
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd = -1;
    /// eventfd the epoch broadcast signals when it fills an empty outbox.
    int wake_fd = -1;
    /// Player id from this connection's Hello (-1 = none).
    std::atomic<core::PlayerId> player{-1};
    /// No more frames: the peer left, a send failed, or the connection
    /// was dropped as a slow consumer.
    std::atomic<bool> done{false};
    /// Serializes the outbox between the epoch broadcast on the clearing
    /// thread and acks and flushes on the connection thread. The fd's
    /// read side belongs to the connection thread alone.
    util::OrderedMutex write_mutex{util::LockRank::kConnection,
                                   "server.connection.write"};
    /// Whole frames the kernel has not taken yet (<= kMaxOutboxBytes).
    std::string outbox MUSK_GUARDED_BY(write_mutex);

    std::jthread thread;
  };

  void accept_loop(const std::stop_token& stop)
      MUSK_EXCLUDES(connections_mutex_);
  void connection_loop(const std::stop_token& stop, Connection* conn);
  void handle_frame(Connection* conn, const Frame& frame);
  void broadcast_epoch(const EpochReport& report)
      MUSK_EXCLUDES(connections_mutex_);
  /// Appends one frame and flushes at once, without blocking. Called
  /// on the connection's own thread, and by stop().
  void send_frame(Connection* conn, MsgType type, std::string_view payload);
  /// Appends whole frames to the outbox; true when it was empty before.
  /// Past kMaxOutboxBytes the connection is dropped instead.
  bool append_locked(Connection* conn, std::string_view frames)
      MUSK_REQUIRES(conn->write_mutex);
  /// Sends as much of the outbox as the kernel takes without blocking.
  void flush_locked(Connection* conn) MUSK_REQUIRES(conn->write_mutex);
  /// Moves finished connections out of the registry, so that they are
  /// joined and closed after connections_mutex_ is released.
  std::vector<std::unique_ptr<Connection>> take_finished_locked()
      MUSK_REQUIRES(connections_mutex_);

  RebalanceService& service_;
  const ServerConfig config_;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> accepted_{0};
  obs::Counter& slow_consumer_dropped_;

  util::OrderedMutex connections_mutex_{util::LockRank::kServer,
                                        "server.connections"};
  std::vector<std::unique_ptr<Connection>> connections_
      MUSK_GUARDED_BY(connections_mutex_);

  std::jthread accept_thread_;
};

}  // namespace musketeer::svc
