// End-to-end live introspection: an in-process daemon answering
// kStatsRequest over the wire. Covers snapshot plausibility (queue
// capacity, gini range, registry JSON), uptime monotonicity across
// calls, intake counters reflecting submissions, and epoch advancement
// after run_epoch().
#include <chrono>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/mechanism_factory.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/wire.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::make_network;
using testutil::small_config;

std::unique_ptr<Daemon> make_daemon(const sim::SimulationConfig& config) {
  DaemonConfig daemon_config;
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  return std::make_unique<Daemon>(
      make_network(config), core::make_mechanism("m3", {}), daemon_config);
}

TEST(StatsE2E, LiveSnapshotOverTheWire) {
  const sim::SimulationConfig config = small_config(17);
  auto daemon = make_daemon(config);
  daemon->start(/*periodic_epochs=*/false);

  Client client(daemon->endpoint());
  client.hello(0);

  // Fresh daemon: nothing cleared, empty queue, sane static fields.
  const StatsResponseMsg before = client.stats();
  EXPECT_EQ(before.service.epochs_cleared, 0);
  // The solve-pool width is static daemon configuration (>= 1 even on
  // the legacy single-thread path); component stats start at zero.
  EXPECT_GE(before.service.solve_threads, 1);
  EXPECT_EQ(before.service.last_components, 0);
  EXPECT_EQ(before.service.largest_component, 0);
  EXPECT_EQ(before.service.queue_depth, 0u);
  EXPECT_GT(before.service.queue_capacity, 0u);
  EXPECT_GE(before.service.uptime_seconds, 0.0);
  EXPECT_GE(before.service.imbalance_gini, 0.0);
  EXPECT_LE(before.service.imbalance_gini, 1.0);
  EXPECT_GE(before.service.imbalance_mean, 0.0);
  EXPECT_LE(before.service.imbalance_mean, 1.0);
  EXPECT_EQ(before.service.intake.total(), 0u);
  // The snapshot carries the full metrics registry as JSON.
  EXPECT_NE(before.registry_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(before.registry_json.find("\"histograms\""), std::string::npos);
  // The server registers its slow-consumer counter before any drop.
  EXPECT_NE(
      before.registry_json.find("\"svc.server.slow_consumer_dropped_total\""),
      std::string::npos);

  // A submission shows up in queue depth and intake counters.
  BidSubmission bid;
  bid.player = 1;
  const BidAckMsg ack = client.submit(bid);
  ASSERT_TRUE(intake_ok(ack.status));
  const StatsResponseMsg mid = client.stats();
  EXPECT_EQ(mid.service.queue_depth, 1u);
  EXPECT_GE(mid.service.queue_high_watermark, 1u);
  EXPECT_EQ(mid.service.intake.accepted, 1u);
  EXPECT_GE(mid.service.uptime_seconds, before.service.uptime_seconds);

  // Clearing an epoch advances the epoch counter, drains the queue,
  // and refreshes the settle-time imbalance gauges.
  const EpochReport report = daemon->service().run_epoch();
  EXPECT_EQ(report.bids_applied, 1u);
  const StatsResponseMsg after = client.stats();
  EXPECT_EQ(after.service.epochs_cleared, 1);
  EXPECT_EQ(after.service.queue_depth, 0u);
  EXPECT_GE(after.service.imbalance_gini, 0.0);
  EXPECT_LE(after.service.imbalance_gini, 1.0);
  EXPECT_GE(after.service.uptime_seconds, mid.service.uptime_seconds);

  // The epoch left its mark on the registry the snapshot exports.
  EXPECT_NE(after.registry_json.find("svc.epoch.total"), std::string::npos);

  daemon->stop();
}

}  // namespace
}  // namespace musketeer::svc
