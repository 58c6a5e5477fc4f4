#include "svc/daemon.hpp"

#include <utility>

namespace musketeer::svc {

Daemon::Daemon(pcn::Network network,
               std::unique_ptr<core::Mechanism> mechanism,
               DaemonConfig config)
    : network_(std::move(network)), mechanism_(std::move(mechanism)) {
  if (!config.journal_path.empty()) {
    // Recover before the service exists: recovery mutates the network
    // single-threaded, and the service resumes at the recovered epoch.
    // The snapshot store is opened even when checkpointing is disabled
    // so a daemon restarted with --snapshot-every 0 still recovers from
    // snapshots a previous run left behind (the journal may already be
    // compacted below genesis).
    journal_ = std::make_unique<Journal>(config.journal_path);
    snapshots_ = std::make_unique<SnapshotStore>(config.journal_path,
                                                 config.keep_snapshots);
    recovery_ = recover(*journal_, *snapshots_, network_,
                        config.service.policy);
    config.service.journal = journal_.get();
    config.service.snapshots = snapshots_.get();
    config.service.recovered = recovery_;
  }
  service_ = std::make_unique<RebalanceService>(network_, *mechanism_,
                                                config.service);
  server_ = std::make_unique<SocketServer>(*service_, config.server);
}

Daemon::~Daemon() { stop(); }

void Daemon::start(bool periodic_epochs) {
  server_->start();  // registers the epoch broadcast callback
  if (periodic_epochs) service_->start();
}

void Daemon::stop() {
  service_->stop();
  server_->stop();
}

}  // namespace musketeer::svc
