// Epoch deadlines, the degradation ladder, and overload-aware admission
// — the service-level robustness contract (DESIGN.md §14).
//
// The wedge under test is a mechanism that never finishes on its own:
// SlowMechanism spins on its cancel point until the deadline fires.
// Every path below must then hold:
//
//   * the epoch descends the configured ladder and settles with the
//     rung's outcome, bit-identical to that mechanism's clean solve;
//   * a journaled degraded epoch replays to the identical digest;
//   * an exhausted ladder aborts all-or-nothing: locks released, epoch
//     number reused, ABORTED journaled, the scheduler not wedged;
//   * sustained overload drives admission to shedding, and the client
//     library's retry budget turns a permanently-shedding server into
//     a terminal OverloadedError instead of an unbounded sleep.
//
// None of this needs -DMUSKETEER_FAULTS: the deadline machinery is a
// production path, driven here by real (generous) timeouts.
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "core/mechanism.hpp"
#include "core/mechanism_factory.hpp"
#include "svc/admission.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc_test_util.hpp"
#include "util/deadline.hpp"

namespace musketeer::svc {
namespace {

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::small_config;

/// Deadlines generous enough that a degradation rung (m3 on a 24-node
/// net, microseconds of work) cannot time out even under sanitizers,
/// while a wedged attempt still resolves in a fraction of a second.
constexpr std::chrono::milliseconds kDeadline{200};

/// Never terminates on its own: spins on the context's cancel point
/// until the deadline fires. The service must recover by descending its
/// ladder.
class SlowMechanism : public core::Mechanism {
 public:
  std::string_view name() const override { return "slow-test"; }
  bool claims_individual_rationality() const override { return false; }

 protected:
  core::Outcome run_impl(flow::SolveContext& ctx, const core::Game&,
                         const core::BidVector&) const override {
    for (;;) MUSK_CANCEL_POINT(ctx.cancel());
  }
};

std::string temp_journal(const std::string& name) {
  std::string path = ::testing::TempDir() + "deadline_" + name;
  testutil::remove_journal_files(path);
  return path;
}

int count_records(const Journal& journal, RecordType type) {
  int n = 0;
  for (const JournalRecord& rec : journal.records()) {
    if (rec.type == type) ++n;
  }
  return n;
}

TEST(DeadlineTest, WedgedMechanismDegradesToLadderRung) {
  const sim::SimulationConfig config = small_config();

  // Oracle: the rung mechanism clearing the same epochs directly.
  core::M3DoubleAuction m3;
  pcn::Network oracle_net = make_network(config);
  ServiceConfig oracle_config;
  oracle_config.policy = config.policy;
  RebalanceService oracle(oracle_net, m3, oracle_config);
  const EpochReport oracle_report = oracle.run_epoch();
  ASSERT_GT(oracle_report.game_edges, 0) << "empty game; pick another seed";

  SlowMechanism slow;
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.epoch_deadline = kDeadline;
  service_config.degradation_ladder = {"m3"};
  RebalanceService service(net, slow, service_config);

  const EpochReport report = service.run_epoch();
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.degradation_level, 1);
  // The degraded epoch's outcome is the rung's clean solve, to the coin.
  EXPECT_EQ(report.network_digest, oracle_report.network_digest);
  expect_networks_equal(net, oracle_net);
  EXPECT_EQ(service.epochs_cleared(), 1);

  const ServiceStats stats = service.stats_snapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.degraded_epochs, 1u);
  EXPECT_EQ(stats.aborted_epochs, 0u);
}

TEST(DeadlineTest, DegradedEpochJournalsRungAndReplaysToSameDigest) {
  const sim::SimulationConfig config = small_config();
  const std::string path = temp_journal("degraded.jrn");

  SlowMechanism slow;
  std::uint64_t live_digest = 0;
  {
    Journal journal(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    service_config.epoch_deadline = kDeadline;
    service_config.degradation_ladder = {"m2-minfee", "m3"};
    RebalanceService service(net, slow, service_config);
    const EpochReport report = service.run_epoch();
    ASSERT_GT(report.game_edges, 0);
    ASSERT_FALSE(report.aborted);
    // Only the first rung ran: m2-minfee got a fresh deadline and
    // cleared well inside it.
    EXPECT_EQ(report.degradation_level, 1);
    live_digest = net.state_digest();
    EXPECT_EQ(count_records(journal, RecordType::kDegraded), 1);
  }

  // Reboot: replay must reproduce the degraded epoch bit for bit and
  // report it as degraded, not merely settled.
  Journal reopened(path);
  pcn::Network recovered = make_network(config);
  const RecoveryReport recovery =
      recover(reopened, SnapshotStore(reopened.path()),
              recovered, config.policy);
  EXPECT_EQ(recovery.epochs_settled, 1);
  EXPECT_EQ(recovery.degraded_epochs, 1);
  EXPECT_EQ(recovery.next_epoch, 1);
  EXPECT_EQ(recovered.state_digest(), live_digest);
}

TEST(DeadlineTest, ExhaustedLadderAbortsAndReusesEpochNumber) {
  const sim::SimulationConfig config = small_config();
  const std::string path = temp_journal("aborted.jrn");
  Journal journal(path);

  SlowMechanism slow;
  pcn::Network net = make_network(config);
  const std::uint64_t genesis = net.state_digest();
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.epoch_deadline = kDeadline;
  service_config.degradation_ladder.clear();  // no rungs: abort directly
  RebalanceService service(net, slow, service_config);

  const EpochReport report = service.run_epoch();
  ASSERT_GT(report.game_edges, 0);
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.epoch, 0);
  EXPECT_EQ(report.degradation_level, 0);
  // All-or-nothing: nothing settled, nothing stays locked, the epoch
  // number is not consumed, the abort is durable.
  EXPECT_EQ(net.state_digest(), genesis);
  for (pcn::ChannelId c = 0; c < net.num_channels(); ++c) {
    EXPECT_EQ(net.channel(c).locked_a, 0) << "channel " << c;
    EXPECT_EQ(net.channel(c).locked_b, 0) << "channel " << c;
  }
  EXPECT_EQ(service.epochs_cleared(), 0);
  ASSERT_FALSE(journal.records().empty());
  EXPECT_EQ(journal.records().back().type, RecordType::kAborted);

  // Not wedged: the next epoch reuses number 0 (and aborts again — the
  // mechanism is still wedged — without deadlock or lock-rank abort).
  const EpochReport again = service.run_epoch();
  EXPECT_TRUE(again.aborted);
  EXPECT_EQ(again.epoch, 0);

  const ServiceStats stats = service.stats_snapshot();
  EXPECT_EQ(stats.aborted_epochs, 2u);
  EXPECT_EQ(stats.deadline_exceeded, 2u);
}

TEST(DeadlineTest, UnknownLadderNameThrowsAtConstruction) {
  const sim::SimulationConfig config = small_config();
  core::M3DoubleAuction m3;
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.degradation_ladder = {"m1", "nope"};
  try {
    RebalanceService service(net, m3, service_config);
    ADD_FAILURE() << "a ladder naming an unknown mechanism was accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("'nope'"), std::string::npos)
        << err.what();
  }
}

TEST(DeadlineTest, EnabledButUnreachedDeadlineIsBitIdenticalToLegacy) {
  const sim::SimulationConfig config = small_config();
  core::M3DoubleAuction m3;

  pcn::Network legacy_net = make_network(config);
  ServiceConfig legacy_config;
  legacy_config.policy = config.policy;
  RebalanceService legacy(legacy_net, m3, legacy_config);

  pcn::Network armed_net = make_network(config);
  ServiceConfig armed_config;
  armed_config.policy = config.policy;
  armed_config.epoch_deadline = std::chrono::milliseconds(60000);
  RebalanceService armed(armed_net, m3, armed_config);

  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochReport a = legacy.run_epoch();
    const EpochReport b = armed.run_epoch();
    EXPECT_EQ(b.network_digest, a.network_digest) << "epoch " << epoch;
    EXPECT_EQ(b.degradation_level, 0);
    EXPECT_FALSE(b.aborted);
  }
  expect_networks_equal(armed_net, legacy_net);
  const ServiceStats stats = armed.stats_snapshot();
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.degraded_epochs, 0u);
}

TEST(DeadlineTest, SustainedOverloadDrivesAdmissionToShedding) {
  const sim::SimulationConfig config = small_config();

  SlowMechanism slow;
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.epoch_deadline = kDeadline;
  service_config.degradation_ladder.clear();
  RebalanceService service(net, slow, service_config);

  // Healthy at start: bids are admitted.
  BidSubmission bid;
  bid.player = 1;
  EXPECT_EQ(service.submit(bid), IntakeStatus::kAccepted);

  // One aborted epoch burns at least the full deadline, so the EWMA
  // seeds at >= deadline: utilization >= 1, level 3, shed everything.
  const EpochReport report = service.run_epoch();
  ASSERT_TRUE(report.aborted);
  EXPECT_EQ(service.shed_level(), 3);

  BidSubmission late;
  late.player = 2;
  EXPECT_EQ(service.submit(late), IntakeStatus::kRejectedOverload);
  const ServiceStats stats = service.stats_snapshot();
  EXPECT_EQ(stats.shed_level, 3);
  EXPECT_GE(stats.ewma_clear_seconds,
            std::chrono::duration<double>(kDeadline).count());
  EXPECT_EQ(stats.intake.rejected_overload, 1u);
  // Retry hints scale 2^level: a saturated server pushes back 8x.
  EXPECT_EQ(service.retry_after_hint(100), 800u);
}

TEST(DeadlineTest, AdmissionControllerLevelsAndHints) {
  AdmissionController admission(/*alpha=*/1.0, /*deadline_seconds=*/1.0);
  ASSERT_TRUE(admission.enabled());
  EXPECT_EQ(admission.shed_level(), 0);

  // alpha=1: the EWMA is just the last sample, so levels are exact.
  admission.record(0.49);
  EXPECT_EQ(admission.shed_level(), 0);
  admission.record(0.5);
  EXPECT_EQ(admission.shed_level(), 1);
  admission.record(0.8);
  EXPECT_EQ(admission.shed_level(), 2);
  admission.record(1.0);
  EXPECT_EQ(admission.shed_level(), 3);
  EXPECT_EQ(admission.scale_retry_after(100), 800u);
  admission.record(0.1);  // recovery is symmetric
  EXPECT_EQ(admission.shed_level(), 0);
  EXPECT_EQ(admission.scale_retry_after(100), 100u);

  // Smoothing: with alpha=0.2 a single slow epoch cannot saturate a
  // healthy EWMA.
  AdmissionController smooth(/*alpha=*/0.2, /*deadline_seconds=*/1.0);
  smooth.record(0.1);  // seeds at the first sample
  EXPECT_DOUBLE_EQ(smooth.ewma_seconds(), 0.1);
  smooth.record(2.0);
  EXPECT_DOUBLE_EQ(smooth.ewma_seconds(), 0.2 * 2.0 + 0.8 * 0.1);
  EXPECT_EQ(smooth.shed_level(), 0);

  // Disabled controller is inert.
  AdmissionController off(/*alpha=*/0.2, /*deadline_seconds=*/0.0);
  EXPECT_FALSE(off.enabled());
  off.record(100.0);
  EXPECT_EQ(off.shed_level(), 0);
  EXPECT_EQ(off.ewma_seconds(), 0.0);
  EXPECT_EQ(off.scale_retry_after(100), 100u);
}

// --- client-side overload surrender -----------------------------------

TEST(DeadlineTest, ClientRetryBudgetTurnsPermanentShedIntoTerminalError) {
  const sim::SimulationConfig config = small_config();
  DaemonConfig daemon_config;
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  // A permanently-shedding server: zero connection slots means every
  // accepted socket is answered with kError{kRetryAfter} and closed.
  daemon_config.server.max_connections = 0;
  daemon_config.server.shed_retry_after_ms = 40;
  Daemon daemon(make_network(config), core::make_mechanism("m3", {}),
                daemon_config);
  daemon.start(/*periodic_epochs=*/false);

  ClientConfig client_config;
  client_config.max_attempts = 1000;  // far beyond what the budget allows
  client_config.backoff_base = std::chrono::milliseconds(10);
  client_config.backoff_max = std::chrono::milliseconds(80);
  client_config.jitter_seed = 7;
  client_config.retry_budget = std::chrono::milliseconds(250);
  Client client(daemon.endpoint(), client_config);

  BidSubmission bid;
  bid.player = 1;
  bool surrendered = false;
  try {
    client.submit(bid, std::chrono::milliseconds(500));
  } catch (const OverloadedError& overloaded) {
    surrendered = true;
    // The cumulative sleep is bounded by the budget — the point of the
    // cap: no summing of an endless stream of server hints.
    EXPECT_LE(overloaded.total_backoff_ms, 250u);
  }
  EXPECT_TRUE(surrendered);
  daemon.stop();
}

}  // namespace
}  // namespace musketeer::svc
