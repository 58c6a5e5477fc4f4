// Owns one complete musketeerd instance: network + mechanism +
// RebalanceService + SocketServer, wired in the right order (the
// server's epoch-broadcast callback must be registered before the
// scheduler starts). Used by the musketeerd binary and started
// in-process by the end-to-end tests and musk_loadgen --spawn.
#pragma once

#include <memory>
#include <string>

#include "core/mechanism.hpp"
#include "pcn/network.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"

namespace musketeer::svc {

struct DaemonConfig {
  ServiceConfig service;
  ServerConfig server;
  /// When non-empty, open (or create) the epoch journal at this path,
  /// replay it against the passed-in genesis network before the service
  /// starts, and journal every epoch. The passed network must be the
  /// same genesis state the journal was started against (digest-checked
  /// on replay). Checkpointing (service.snapshot_every) needs it.
  std::string journal_path;
  /// How many validated snapshots to retain (newest-first); older ones
  /// are unlinked after each successful write. SnapshotStore raises
  /// values below 1 to 1.
  int keep_snapshots = 2;
};

class Daemon {
 public:
  /// Takes ownership of the network and mechanism.
  Daemon(pcn::Network network, std::unique_ptr<core::Mechanism> mechanism,
         DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the socket server and, when `periodic_epochs`, the epoch
  /// scheduler. With periodic_epochs = false the caller drives epochs
  /// via service().run_epoch() (tests, manual operation).
  void start(bool periodic_epochs = true);

  /// Stops scheduler then server. Idempotent; also run by the dtor.
  void stop();

  RebalanceService& service() { return *service_; }
  SocketServer& server() { return *server_; }

  /// Resolved listen endpoint (valid after start()).
  std::string endpoint() const { return server_->endpoint(); }

  /// Copy of the current network state under the service lock.
  pcn::Network network_snapshot() const {
    return service_->network_snapshot();
  }

  /// What journal replay recovered at construction (zero-valued when no
  /// journal is configured or the journal was empty).
  const RecoveryReport& recovery() const { return recovery_; }

  /// The epoch journal, or nullptr when none is configured.
  Journal* journal() { return journal_.get(); }

  /// The snapshot store, or nullptr when checkpointing is disabled.
  SnapshotStore* snapshots() { return snapshots_.get(); }

 private:
  pcn::Network network_;
  std::unique_ptr<core::Mechanism> mechanism_;
  /// Declared before service_: the service borrows the journal and the
  /// snapshot store, so both must outlive it (and be destroyed after it).
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<SnapshotStore> snapshots_;
  RecoveryReport recovery_;
  std::unique_ptr<RebalanceService> service_;
  std::unique_ptr<SocketServer> server_;
};

}  // namespace musketeer::svc
