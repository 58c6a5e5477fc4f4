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
  EXPECT_EQ(before.epoch, 0u);
  // The solve-pool width is static daemon configuration (>= 1 even on
  // the legacy single-thread path); component stats start at zero.
  EXPECT_GE(before.solve_threads, 1u);
  EXPECT_EQ(before.last_components, 0u);
  EXPECT_EQ(before.largest_component, 0u);
  EXPECT_EQ(before.queue_depth, 0u);
  EXPECT_GT(before.queue_capacity, 0u);
  EXPECT_GE(before.uptime_seconds, 0.0);
  EXPECT_GE(before.imbalance_gini, 0.0);
  EXPECT_LE(before.imbalance_gini, 1.0);
  EXPECT_GE(before.imbalance_mean, 0.0);
  EXPECT_LE(before.imbalance_mean, 1.0);
  EXPECT_EQ(before.intake.total(), 0u);
  // The snapshot carries the full metrics registry as JSON.
  EXPECT_NE(before.registry_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(before.registry_json.find("\"histograms\""), std::string::npos);

  // A submission shows up in queue depth and intake counters.
  BidSubmission bid;
  bid.player = 1;
  const BidAckMsg ack = client.submit(bid);
  ASSERT_TRUE(intake_ok(ack.status));
  const StatsResponseMsg mid = client.stats();
  EXPECT_EQ(mid.queue_depth, 1u);
  EXPECT_GE(mid.queue_high_watermark, 1u);
  EXPECT_EQ(mid.intake.accepted, 1u);
  EXPECT_GE(mid.uptime_seconds, before.uptime_seconds);

  // Clearing an epoch advances the epoch counter, drains the queue,
  // and refreshes the settle-time imbalance gauges.
  const EpochReport report = daemon->service().run_epoch();
  EXPECT_EQ(report.bids_applied, 1u);
  const StatsResponseMsg after = client.stats();
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_GE(after.imbalance_gini, 0.0);
  EXPECT_LE(after.imbalance_gini, 1.0);
  EXPECT_GE(after.uptime_seconds, mid.uptime_seconds);

  // The epoch left its mark on the registry the snapshot exports.
  EXPECT_NE(after.registry_json.find("svc.epoch.total"), std::string::npos);

  // Stats responses must round-trip the wire codec exactly — including
  // the v4 solve-shape fields, pinned to distinct values so a codec
  // that drops or reorders them cannot pass.
  StatsResponseMsg shaped = after;
  shaped.solve_threads = 8;
  shaped.last_components = 3;
  shaped.largest_component = 41;
  const std::string encoded = encode_stats_response(shaped);
  const StatsResponseMsg decoded = decode_stats_response(encoded);
  EXPECT_EQ(decoded.epoch, shaped.epoch);
  EXPECT_EQ(decoded.queue_capacity, shaped.queue_capacity);
  EXPECT_EQ(decoded.intake.accepted, shaped.intake.accepted);
  EXPECT_EQ(decoded.registry_json, shaped.registry_json);
  EXPECT_EQ(decoded.solve_threads, 8u);
  EXPECT_EQ(decoded.last_components, 3u);
  EXPECT_EQ(decoded.largest_component, 41u);

  daemon->stop();
}

}  // namespace
}  // namespace musketeer::svc
