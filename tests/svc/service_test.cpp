// RebalanceService: snapshot/clear/settle equivalence with the historic
// inline path, bid-override application, notices, the scheduler, clean
// abort (locks released, journal closed) when a mechanism throws, a
// failed periodic epoch surfacing in wait_epochs, and the epoch lock's
// contract: readers of the network wait for a clear, intake does not.
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "core/m4_delayed.hpp"
#include "core/m5_variable_delay.hpp"
#include "flow/solve_context.hpp"
#include "pcn/rebalancer.hpp"
#include "sim/engine.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc/sim_backend.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::small_config;

TEST(Service, EmptyQueueEpochMatchesInlineRebalance) {
  const sim::SimulationConfig config = small_config(7);
  pcn::Network service_net = make_network(config);
  pcn::Network inline_net = make_network(config);
  core::M3DoubleAuction mechanism;

  ServiceConfig service_config;
  service_config.policy = config.policy;
  RebalanceService service(service_net, mechanism, service_config);
  sim::MechanismBackend inline_backend(mechanism);

  for (int epoch = 0; epoch < 3; ++epoch) {
    const EpochReport report = service.run_epoch();
    const pcn::RebalanceStats stats =
        inline_backend.rebalance(inline_net, config.policy);
    EXPECT_EQ(report.epoch, epoch);
    EXPECT_EQ(report.cycles_executed, stats.cycles_executed);
    EXPECT_EQ(report.rebalanced_volume, stats.volume);
    expect_networks_equal(service_net, inline_net);
  }
  EXPECT_EQ(service.epochs_cleared(), 3);
  EXPECT_EQ(service.reports().size(), 3u);
}

TEST(Service, ServiceBackendSimulationIsBitIdentical) {
  sim::SimulationConfig config = small_config(13);
  config.epochs = 4;
  config.payments_per_epoch = 40;
  core::M3DoubleAuction mechanism;

  pcn::Network inline_final(0);
  sim::MechanismBackend inline_backend(mechanism);
  const sim::SimulationResult inline_result =
      sim::run_simulation(config, &inline_backend, &inline_final);

  pcn::Network service_final(0);
  ServiceBackend service_backend(mechanism);
  const sim::SimulationResult service_result =
      sim::run_simulation(config, &service_backend, &service_final);

  ASSERT_EQ(inline_result.epochs.size(), service_result.epochs.size());
  for (std::size_t e = 0; e < inline_result.epochs.size(); ++e) {
    EXPECT_EQ(inline_result.epochs[e].payments_succeeded,
              service_result.epochs[e].payments_succeeded);
    EXPECT_EQ(inline_result.epochs[e].rebalanced_volume,
              service_result.epochs[e].rebalanced_volume);
    EXPECT_EQ(inline_result.epochs[e].rebalance_cycles,
              service_result.epochs[e].rebalance_cycles);
  }
  expect_networks_equal(service_final, inline_final);
}

TEST(Service, SubmittedBidOverridesTruthfulValuation) {
  const sim::SimulationConfig config = small_config(21);
  pcn::Network with_bid_net = make_network(config);
  pcn::Network truthful_net = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;

  // Run one truthful epoch to find a player that actually trades.
  RebalanceService probe(truthful_net, mechanism, service_config);
  const EpochReport truthful = probe.run_epoch();
  ASSERT_GT(truthful.cycles_executed, 0) << "seed cleared no cycles";
  ASSERT_FALSE(truthful.notices.empty());

  // A buyer bidding zero on every edge it heads cannot be charged a
  // positive price (M3 is individually rational against the bid).
  const core::PlayerId player = truthful.notices.front().player;
  RebalanceService service(with_bid_net, mechanism, service_config);
  BidSubmission bid;
  bid.player = player;
  bid.has_head = true;
  bid.head_bid = 0.0;
  ASSERT_EQ(service.submit(bid), IntakeStatus::kAccepted);
  const EpochReport shaded = service.run_epoch();
  EXPECT_EQ(shaded.bids_applied, 1u);
  for (const PlayerNotice& notice : shaded.notices) {
    if (notice.player == player) {
      EXPECT_LE(notice.price, 1e-12);
    }
  }

  // The bid applied to exactly that epoch: the next clear is truthful
  // again and the two networks have genuinely diverged or matched on
  // their own merits — either way the service kept running.
  const EpochReport next = service.run_epoch();
  EXPECT_EQ(next.bids_applied, 0u);
  EXPECT_EQ(next.epoch, 1);
}

TEST(Service, NoticesAreConsistentWithReports) {
  const sim::SimulationConfig config = small_config(5);
  pcn::Network network = make_network(config);
  core::M4DelayedAuction mechanism(2.0);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  RebalanceService service(network, mechanism, service_config);

  const EpochReport report = service.run_epoch();
  ASSERT_GT(report.cycles_executed, 0);
  ASSERT_FALSE(report.notices.empty());
  core::PlayerId previous = -1;
  int max_cycles = 0;
  for (const PlayerNotice& notice : report.notices) {
    EXPECT_GT(notice.player, previous) << "notices not sorted/unique";
    previous = notice.player;
    EXPECT_GT(notice.cycles, 0);
    EXPECT_TRUE(std::isfinite(notice.price));
    max_cycles = std::max(max_cycles, notice.cycles);
  }
  EXPECT_LE(max_cycles, report.cycles_executed);
}

/// What one clear of `network` must publish, computed the plain way: a
/// copy of the network through extract_and_lock, the overrides applied
/// by a loop over every edge, the mechanism on a fresh context, settle,
/// and a std::map fold over each cycle's tails.
struct ReferenceClear {
  std::vector<PlayerNotice> notices;
  std::uint64_t digest = 0;
};

ReferenceClear reference_clear(pcn::Network network,
                               const pcn::RebalancePolicy& policy,
                               const core::Mechanism& mechanism,
                               const std::vector<BidSubmission>& subs) {
  const pcn::ExtractedGame extracted = pcn::extract_and_lock(network, policy);
  const core::Game& game = extracted.game;
  core::BidVector bids = game.truthful_bids();
  for (const BidSubmission& s : subs) {
    for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
      const auto i = static_cast<std::size_t>(e);
      if (s.has_tail && game.edge(e).from == s.player) bids.tail[i] = s.tail_bid;
      if (s.has_head && game.edge(e).to == s.player) bids.head[i] = s.head_bid;
    }
  }
  flow::SolveContext ctx;
  const core::Outcome outcome = mechanism.run(ctx, game, bids);
  pcn::apply_outcome(network, extracted, outcome);

  std::map<core::PlayerId, PlayerNotice> by_player;
  for (const core::PricedCycle& pc : outcome.cycles) {
    for (const core::PlayerId v : game.cycle_players(pc.cycle)) {
      PlayerNotice& notice = by_player[v];
      notice.player = v;
      notice.price += pc.price_of(v);
      notice.cycles += 1;
      notice.volume += pc.cycle.amount;
      notice.delay_bonus += pc.delay_bonus_of(v);
    }
  }
  ReferenceClear ref;
  for (const auto& [player, notice] : by_player) ref.notices.push_back(notice);
  ref.digest = network.state_digest();
  return ref;
}

// The service indexes overrides and notices by dense per-player arrays;
// its first epoch must publish exactly what the plain reference does,
// bit for bit, on mechanisms with uniform (M4) and per-player (M5)
// delay bonuses.
TEST(Service, NoticesAndOverridesMatchMapReference) {
  // Seed 9's first epoch clears 10 cycles, and players 0 and n-1 both
  // trade in them.
  const sim::SimulationConfig config = small_config(9);
  const pcn::Network genesis = make_network(config);
  const core::PlayerId last = genesis.num_nodes() - 1;
  std::vector<double> delay_factors;
  for (core::PlayerId v = 0; v <= last; ++v) {
    delay_factors.push_back(0.5 + 0.25 * static_cast<double>(v % 5));
  }
  const core::M3DoubleAuction m3;
  const core::M4DelayedAuction m4(2.0);
  const core::M5VariableDelay m5(delay_factors);

  std::vector<BidSubmission> subs(3);
  subs[0].player = 0;
  subs[0].has_tail = true;
  subs[0].tail_bid = -0.0004;
  subs[0].has_head = true;
  subs[0].head_bid = 0.03;
  subs[1].player = 7;  // a participation refresh: no override
  subs[2].player = last;
  subs[2].has_tail = true;
  subs[2].tail_bid = 0.0;
  subs[2].has_head = true;
  subs[2].head_bid = 0.05;

  for (const core::Mechanism* mechanism :
       std::vector<const core::Mechanism*>{&m3, &m4, &m5}) {
    SCOPED_TRACE(std::string(mechanism->name()));
    pcn::Network network = genesis;
    ServiceConfig service_config;
    service_config.policy = config.policy;
    RebalanceService service(network, *mechanism, service_config);
    for (const BidSubmission& s : subs) {
      ASSERT_EQ(service.submit(s), IntakeStatus::kAccepted);
    }
    const EpochReport report = service.run_epoch();
    ASSERT_GT(report.cycles_executed, 0) << "seed cleared no cycles";
    EXPECT_EQ(report.bids_applied, subs.size());

    const ReferenceClear want =
        reference_clear(genesis, config.policy, *mechanism, subs);
    ASSERT_EQ(want.notices.front().player, 0);
    ASSERT_EQ(want.notices.back().player, last);
    EXPECT_EQ(report.network_digest, want.digest);
    ASSERT_EQ(report.notices.size(), want.notices.size());
    for (std::size_t i = 0; i < want.notices.size(); ++i) {
      const PlayerNotice& got = report.notices[i];
      const PlayerNotice& ref = want.notices[i];
      EXPECT_EQ(got.player, ref.player) << "notice " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.price),
                std::bit_cast<std::uint64_t>(ref.price))
          << "player " << ref.player;
      EXPECT_EQ(got.cycles, ref.cycles) << "player " << ref.player;
      EXPECT_EQ(got.volume, ref.volume) << "player " << ref.player;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.delay_bonus),
                std::bit_cast<std::uint64_t>(ref.delay_bonus))
          << "player " << ref.player;
    }
  }
}

TEST(Service, SchedulerClearsEpochsAndStops) {
  const sim::SimulationConfig config = small_config(3);
  pcn::Network network = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.epoch_period = std::chrono::milliseconds(5);
  RebalanceService service(network, mechanism, service_config);

  service.start();
  EXPECT_TRUE(service.wait_epochs(3, std::chrono::seconds(30)));
  service.stop();
  const int cleared = service.epochs_cleared();
  EXPECT_GE(cleared, 3);
  // After stop, intake reports closed and no further epochs clear.
  EXPECT_EQ(service.submit(BidSubmission{}), IntakeStatus::kRejectedClosed);
  EXPECT_EQ(service.epochs_cleared(), cleared);
}

TEST(Service, MaxEpochsStopsScheduler) {
  const sim::SimulationConfig config = small_config(4);
  pcn::Network network = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.epoch_period = std::chrono::milliseconds(1);
  service_config.max_epochs = 2;
  RebalanceService service(network, mechanism, service_config);
  service.start();
  EXPECT_TRUE(service.wait_epochs(2, std::chrono::seconds(30)));
  service.stop();
  EXPECT_EQ(service.epochs_cleared(), 2);
}

TEST(Service, ConcurrentSubmitsDuringClears) {
  const sim::SimulationConfig config = small_config(6);
  pcn::Network network = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.queue_capacity = 8;
  RebalanceService service(network, mechanism, service_config);

  std::uint64_t applied = 0;
  {
    std::vector<std::jthread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&service, t] {
        for (int i = 0; i < 200; ++i) {
          BidSubmission bid;
          bid.player = static_cast<core::PlayerId>((t * 7 + i) % 24);
          service.submit(bid);
        }
      });
    }
    for (int epoch = 0; epoch < 5; ++epoch) {
      applied += service.run_epoch().bids_applied;
    }
  }
  applied += service.run_epoch().bids_applied;  // drain the leftovers

  const IntakeCounters counters = service.intake_counters();
  EXPECT_EQ(counters.total(), 800u);
  // Every queued (accepted) bid was applied to exactly one epoch.
  EXPECT_EQ(applied, counters.accepted);
  EXPECT_LE(applied, 6u * service.queue_capacity());
}

TEST(Service, SteadyStateEpochsPerformZeroGraphRebuilds) {
  // The zero-rebuild guarantee: with no payment traffic between epochs,
  // the network converges, extraction becomes topology-stable, and every
  // quiescent clear rebinds the service's SolveContext in place.
  const sim::SimulationConfig config = small_config(21);
  pcn::Network network = make_network(config);
  core::M3DoubleAuction mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  RebalanceService service(network, mechanism, service_config);

  std::vector<EpochReport> reports;
  for (int epoch = 0; epoch < 8; ++epoch) {
    reports.push_back(service.run_epoch());
  }

  // The first epoch binds the freshly extracted topology: >= 1 build.
  ASSERT_GT(reports[0].game_edges, 0);
  EXPECT_GE(reports[0].graph_rebuilds, 1);

  // After the first epoch that moves nothing, the network (and hence the
  // extracted game structure) is fixed: every later epoch must report
  // zero structure builds AND keep moving nothing.
  std::size_t quiescent = reports.size();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].cycles_executed == 0) {
      quiescent = i;
      break;
    }
  }
  ASSERT_LT(quiescent, reports.size()) << "network never went quiescent";
  for (std::size_t i = quiescent + 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].graph_rebuilds, 0) << "epoch " << i;
    EXPECT_EQ(reports[i].cycles_executed, 0) << "epoch " << i;
    EXPECT_EQ(reports[i].network_digest, reports[quiescent].network_digest)
        << "epoch " << i;
  }
}

/// Fails its first clear, then behaves like M3: the service must treat
/// the failure as a clean abort and the retry as a fresh epoch.
class ThrowOnceMechanism : public core::Mechanism {
 public:
  std::string_view name() const override { return "throw-once"; }

 protected:
  core::Outcome run_impl(flow::SolveContext& ctx, const core::Game& game,
                         const core::BidVector& bids) const override {
    if (!thrown_) {
      thrown_ = true;
      throw std::runtime_error("mechanism exploded mid-clear");
    }
    return inner_.run(ctx, game, bids);
  }

 private:
  mutable bool thrown_ = false;
  core::M3DoubleAuction inner_;
};

TEST(Service, MechanismThrowReleasesLocksAndReusesEpoch) {
  const sim::SimulationConfig config = small_config(5);
  const std::string journal_path =
      ::testing::TempDir() + "musk_service_abort.jrn";
  testutil::remove_journal_files(journal_path);
  pcn::Network network = make_network(config);
  pcn::Network reference = make_network(config);
  const std::uint64_t genesis = network.state_digest();
  ThrowOnceMechanism mechanism;
  Journal journal(journal_path);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  RebalanceService service(network, mechanism, service_config);

  // A bid queued for the failed epoch is consumed by the drain; the
  // epoch itself aborts.
  BidSubmission bid;
  bid.player = 1;
  ASSERT_EQ(service.submit(bid), IntakeStatus::kAccepted);
  EXPECT_THROW(service.run_epoch(), std::runtime_error);

  // Clean abort: every HTLC pre-lock released, balances untouched, and
  // the failed epoch's number not consumed.
  EXPECT_EQ(network.state_digest(), genesis);
  for (pcn::ChannelId c = 0; c < network.num_channels(); ++c) {
    EXPECT_EQ(network.channel(c).locked_a, 0) << "channel " << c;
    EXPECT_EQ(network.channel(c).locked_b, 0) << "channel " << c;
  }
  EXPECT_EQ(service.epochs_cleared(), 0);
  EXPECT_TRUE(service.reports().empty());

  // The abort is durable: the journal closed epoch 0 with ABORTED, so a
  // recovering daemon knows the rollback was deliberate.
  const std::vector<JournalRecord> written =
      scan_journal(journal.path()).records;
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0].type, RecordType::kBegin);
  EXPECT_EQ(written[0].epoch, 0);
  EXPECT_EQ(written[0].digest, genesis);
  EXPECT_EQ(written[1].type, RecordType::kAborted);
  EXPECT_EQ(written[1].epoch, 0);

  // The retry clears epoch 0 and, bids aside, matches a service that
  // never failed (the aborted attempt left no trace on the network).
  const EpochReport report = service.run_epoch();
  EXPECT_EQ(report.epoch, 0);
  EXPECT_EQ(report.bids_applied, 0u);  // the bid died with the abort

  core::M3DoubleAuction clean;
  ServiceConfig reference_config;
  reference_config.policy = config.policy;
  RebalanceService reference_service(reference, clean, reference_config);
  reference_service.run_epoch();
  expect_networks_equal(network, reference);
}

/// Fails every clear.
class AlwaysThrowMechanism : public core::Mechanism {
 public:
  std::string_view name() const override { return "always-throw"; }

 protected:
  core::Outcome run_impl(flow::SolveContext& /*ctx*/,
                         const core::Game& /*game*/,
                         const core::BidVector& /*bids*/) const override {
    throw std::runtime_error("mechanism always fails");
  }
};

// A periodic epoch that throws must not escape the scheduler thread,
// where it would terminate the process: the scheduler stops clearing
// and wait_epochs rethrows the failure to whoever waits on the service.
TEST(Service, SchedulerFailureSurfacesInWaitEpochs) {
  const sim::SimulationConfig config = small_config(5);
  pcn::Network network = make_network(config);
  const std::uint64_t genesis = network.state_digest();
  AlwaysThrowMechanism mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.epoch_period = std::chrono::milliseconds(1);
  RebalanceService service(network, mechanism, service_config);

  service.start();
  EXPECT_THROW(service.wait_epochs(1, std::chrono::seconds(30)),
               std::runtime_error);
  service.stop();
  EXPECT_EQ(service.epochs_cleared(), 0);
  EXPECT_TRUE(service.reports().empty());
  // The failed epoch released its pre-locks: nothing moved.
  EXPECT_EQ(service.network_snapshot().state_digest(), genesis);
  // The failure is kept, not consumed by the first wait.
  EXPECT_THROW(service.wait_epochs(0, std::chrono::milliseconds(0)),
               std::runtime_error);
}

/// M3, except that its first clear parks until release(): the game is
/// extracted and its capacity HTLC-locked, and nothing is settled.
class ParkFirstClearMechanism : public core::Mechanism {
 public:
  std::string_view name() const override { return "park-first-clear"; }

  /// Waits (bounded) until the first clear has parked.
  bool wait_parked() {
    return parked_future_.wait_for(std::chrono::seconds(30)) ==
           std::future_status::ready;
  }
  void release() { release_.set_value(); }

 protected:
  core::Outcome run_impl(flow::SolveContext& ctx, const core::Game& game,
                         const core::BidVector& bids) const override {
    if (!has_parked_) {
      has_parked_ = true;
      parked_.set_value();
      release_future_.wait_for(std::chrono::seconds(30));
    }
    return inner_.run(ctx, game, bids);
  }

 private:
  mutable bool has_parked_ = false;
  mutable std::promise<void> parked_;
  std::future<void> parked_future_ = parked_.get_future();
  std::promise<void> release_;
  std::future<void> release_future_ = release_.get_future();
  core::M3DoubleAuction inner_;
};

// The epoch lock is the service's only lock. A reader of the network
// waits for the clear in flight, so it never copies capacity a clear has
// HTLC-locked; intake, the acks' epoch read and the stats endpoint take
// no service lock, so they never wait for a clear.
TEST(Service, NetworkSnapshotWaitsForTheEpochInFlight) {
  const sim::SimulationConfig config = small_config(5);
  pcn::Network network = make_network(config);
  ParkFirstClearMechanism mechanism;
  ServiceConfig service_config;
  service_config.policy = config.policy;
  RebalanceService service(network, mechanism, service_config);

  std::future<EpochReport> epoch = std::async(
      std::launch::async, [&service] { return service.run_epoch(); });
  ASSERT_TRUE(mechanism.wait_parked());

  BidSubmission bid;
  bid.player = 1;
  EXPECT_EQ(service.submit(bid), IntakeStatus::kAccepted);
  EXPECT_EQ(service.epochs_cleared(), 0);
  EXPECT_EQ(service.stats_snapshot().queue_depth, 1u);

  std::future<pcn::Network> snapshot = std::async(
      std::launch::async, [&service] { return service.network_snapshot(); });
  EXPECT_EQ(snapshot.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "network_snapshot() did not wait for the epoch in flight";

  mechanism.release();
  const EpochReport report = epoch.get();
  const pcn::Network settled = snapshot.get();
  EXPECT_EQ(settled.state_digest(), report.network_digest);
  for (pcn::ChannelId c = 0; c < settled.num_channels(); ++c) {
    EXPECT_EQ(settled.channel(c).locked_a, 0) << "channel " << c;
    EXPECT_EQ(settled.channel(c).locked_b, 0) << "channel " << c;
  }
}

}  // namespace
}  // namespace musketeer::svc
