// Socket front end of the rebalancing service.
//
// One std::jthread runs one poll(2) loop over the server's eventfd, the
// listening socket and every connection (no detach, no naked sleeps —
// the repo lint enforces it). Connections speak the framed protocol in
// svc/wire.hpp: bids are dispatched straight into the service's intake
// queue and acked with the IntakeStatus; after every settled epoch the
// server broadcasts the epoch result to all connections and a targeted
// PlayerNotice to each connection that Hello'd a participating player.
//
// Writes never block. Accepted sockets are non-blocking and, on tcp,
// have TCP_NODELAY set. Every outbound frame is appended whole to its
// connection's bounded outbox; one mutex guards the connection list and
// every outbox. The loop accepts (shedding past max_connections), reads
// and parses frames, appends and flushes acks, stats and errors at
// once, flushes pending outboxes and reaps closed connections. The
// epoch broadcast runs on the clearing thread, so it only appends and
// then writes the eventfd once; the loop does the sending. A client
// that lets its outbox grow past kMaxOutboxBytes (two maximal frames)
// is dropped and counted in svc.server.slow_consumer_dropped_total, so
// no client can stall a clear.
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

  /// Binds, listens, and starts the I/O thread. Throws on bind failure.
  /// After return, endpoint() names the resolved address.
  void start();

  /// Joins the I/O thread, then sends kShutdown to every connection
  /// (best effort, without blocking) and closes all sockets.
  /// Idempotent.
  void stop();

  /// Resolved listen address ("tcp:<real-port>" / "unix:<path>").
  std::string endpoint() const;

 private:
  /// One client. The I/O thread alone reads the socket and owns the
  /// parser; `player`, `done` and `outbox` are guarded by mutex_, which
  /// the epoch broadcast takes to read and append them.
  struct Connection {
    int fd = -1;
    FrameParser parser;
    /// Player id from this connection's Hello (-1 = none).
    core::PlayerId player = -1;
    /// No more frames: the peer left, a send failed, or the connection
    /// was dropped as a slow consumer. The loop closes it next round.
    bool done = false;
    /// Whole frames the kernel has not taken yet (<= kMaxOutboxBytes).
    std::string outbox;
  };

  void loop(const std::stop_token& stop) MUSK_EXCLUDES(mutex_);
  /// Accepts every pending connection, shedding past max_connections.
  void accept_pending() MUSK_EXCLUDES(mutex_);
  /// Reads what the kernel holds for `conn` and serves its whole frames.
  void serve(Connection& conn) MUSK_EXCLUDES(mutex_);
  void handle_frame(Connection& conn, const Frame& frame)
      MUSK_EXCLUDES(mutex_);
  void broadcast_epoch(const EpochReport& report) MUSK_EXCLUDES(mutex_);
  /// Appends one frame and flushes at once, without blocking.
  void send_frame(Connection& conn, MsgType type, std::string_view payload)
      MUSK_EXCLUDES(mutex_);
  /// Appends whole frames to the outbox; true when it was empty before.
  /// Past kMaxOutboxBytes the connection is dropped instead.
  bool append_locked(Connection& conn, std::string_view frames)
      MUSK_REQUIRES(mutex_);
  /// Sends as much of the outbox as the kernel takes without blocking.
  void flush_locked(Connection& conn) MUSK_REQUIRES(mutex_);

  RebalanceService& service_;
  const ServerConfig config_;
  Endpoint endpoint_;
  int listen_fd_ = -1;
  /// The loop polls it; the epoch broadcast and stop() write it.
  int wake_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stopping_{false};
  obs::Counter& slow_consumer_dropped_;

  util::OrderedMutex mutex_{util::LockRank::kServer, "server"};
  std::vector<std::unique_ptr<Connection>> connections_
      MUSK_GUARDED_BY(mutex_);

  std::jthread thread_;
};

}  // namespace musketeer::svc
