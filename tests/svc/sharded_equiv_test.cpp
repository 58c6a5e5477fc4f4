// Thread-count equivalence: a SolveContext with a ParallelExecutor attached
// gives results BIT-identical to a flat whole-graph network simplex
// solve — circulations against the flat solve_max_welfare, M3's priced
// cycles against whole-graph M3, VCG prices against whole-graph G_{-v}
// solves (compared at the bit level, not within a tolerance), and
// SolveStats counters — at every thread count; and every mechanism's
// outcome and the settled-network digests do not depend on the thread
// count. The corpus mixes connected and multi-component games. M2 runs
// its exclusion solves as executor tasks on forked threads; the suite
// carries the svc label so the tsan CI preset races them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/m1_fixed_fee.hpp"
#include "core/m2_minfee.hpp"
#include "core/m2_vcg.hpp"
#include "core/m3_double_auction.hpp"
#include "core/m4_delayed.hpp"
#include "core/mechanism_factory.hpp"
#include "flow/decompose.hpp"
#include "flow/solve_context.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "sim/engine.hpp"
#include "svc/executor.hpp"
#include "svc/sim_backend.hpp"
#include "svc_test_util.hpp"
#include "util/rng.hpp"

namespace musketeer::svc {
namespace {

/// Exact double equality: same bit pattern, not "close enough". The
/// pooled path promises the identical float operations in the identical
/// order, so nothing weaker is acceptable.
void expect_bits_equal(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_outcomes_identical(const core::Outcome& got,
                               const core::Outcome& want,
                               const std::string& what) {
  EXPECT_EQ(got.circulation, want.circulation) << what;
  ASSERT_EQ(got.cycles.size(), want.cycles.size()) << what;
  for (std::size_t i = 0; i < got.cycles.size(); ++i) {
    const core::PricedCycle& g = got.cycles[i];
    const core::PricedCycle& w = want.cycles[i];
    const std::string where = what + " cycle " + std::to_string(i);
    EXPECT_EQ(g.cycle.edges, w.cycle.edges) << where;
    EXPECT_EQ(g.cycle.amount, w.cycle.amount) << where;
    expect_bits_equal(g.release_time, w.release_time, where);
    expect_bits_equal(g.delay_bonus, w.delay_bonus, where);
    ASSERT_EQ(g.prices.size(), w.prices.size()) << where;
    for (std::size_t j = 0; j < g.prices.size(); ++j) {
      EXPECT_EQ(g.prices[j].player, w.prices[j].player) << where;
      expect_bits_equal(g.prices[j].price, w.prices[j].price, where);
    }
  }
}

/// `clusters` disjoint BA games glued into one Game with node offsets:
/// exactly `clusters` weakly connected components.
core::Game clustered_game(int clusters, flow::NodeId nodes_per_cluster,
                          util::Rng& rng) {
  core::Game merged(clusters * nodes_per_cluster);
  for (int c = 0; c < clusters; ++c) {
    gen::GameConfig config;
    config.depleted_share = 0.3;
    const core::Game part =
        gen::random_ba_game(nodes_per_cluster, 2, config, rng);
    const flow::NodeId offset = c * nodes_per_cluster;
    for (core::EdgeId e = 0; e < part.num_edges(); ++e) {
      const core::GameEdge& edge = part.edge(e);
      merged.add_edge(edge.from + offset, edge.to + offset, edge.capacity,
                      edge.tail_valuation, edge.head_valuation);
    }
  }
  return merged;
}

/// Every mechanism solves with the network simplex; the flat references
/// name it explicitly.
constexpr flow::SolverKind kSimplex = flow::SolverKind::kNetworkSimplex;

/// M3 priced the slow way: one flat solve of the whole graph, the
/// whole-graph decomposition, and M3's welfare-share pricing.
core::Outcome whole_graph_m3(const core::Game& game) {
  const core::BidVector bids = game.truthful_bids();
  const flow::Graph g = game.build_graph(bids);
  core::Outcome outcome;
  outcome.circulation = flow::solve_max_welfare(g, kSimplex);
  for (flow::CycleFlow& cycle :
       flow::decompose_sign_consistent(g, outcome.circulation)) {
    core::PricedCycle pc;
    pc.prices = core::price_cycle_welfare_share(game, bids, cycle);
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

/// M2's VCG prices the slow way: G_{-v} built whole for every buyer,
/// solved flat, priced by the same welfare difference
///     p(v) = SW(b_{-v}, f_{-v}) - SW(b_{-v}, f).
std::vector<double> whole_graph_vcg_prices(const core::Game& game) {
  core::BidVector bids = game.truthful_bids();
  for (double& t : bids.tail) t = 0.0;  // M2's sellers are non-strategic
  const flow::Circulation f =
      flow::solve_max_welfare(game.build_graph(bids), kSimplex);
  const auto welfare_without = [&](core::PlayerId v,
                                   const flow::Circulation& flow) {
    return game.social_welfare(bids, flow) - game.player_value(v, bids, flow);
  };
  std::vector<bool> is_buyer(static_cast<std::size_t>(game.num_players()),
                             false);
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    if (bids.head[static_cast<std::size_t>(e)] > 0.0) {
      is_buyer[static_cast<std::size_t>(game.edge(e).to)] = true;
    }
  }
  std::vector<double> prices(static_cast<std::size_t>(game.num_players()), 0.0);
  for (core::PlayerId v = 0; v < game.num_players(); ++v) {
    if (!is_buyer[static_cast<std::size_t>(v)]) continue;
    const flow::Circulation f_minus =
        flow::solve_max_welfare(game.build_graph_without(bids, v), kSimplex);
    prices[static_cast<std::size_t>(v)] =
        welfare_without(v, f_minus) - welfare_without(v, f);
  }
  return prices;
}

/// Round `round`'s game of the 100-game corpus: a mix of connected and
/// multi-component games.
core::Game corpus_game(int round, util::Rng& rng) {
  return (round % 2 == 0) ? clustered_game(1 + round % 5, 10, rng)
                          : gen::random_ba_game(12 + 4 * (round % 5), 2,
                                                gen::GameConfig{}, rng);
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

// 100 seeded games through M3: the run at the parameterized thread
// count must reproduce the whole-graph M3 outcome bit for bit.
TEST_P(ShardedEquivalenceTest, HundredGamesBitIdenticalM3) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  const core::M3DoubleAuction mechanism;
  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  util::Rng rng(0x5EED5);
  for (int round = 0; round < 100; ++round) {
    const core::Game game = corpus_game(round, rng);
    expect_outcomes_identical(mechanism.run_truthful(ctx, game),
                              whole_graph_m3(game),
                              "round " + std::to_string(round) + " threads " +
                                  std::to_string(threads));
  }
}

// The same corpus: the context's circulation must equal the flat solve
// of the whole graph.
TEST_P(ShardedEquivalenceTest, CirculationsMatchWholeGraphSolve) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  util::Rng rng(0x5EED5);
  for (int round = 0; round < 100; ++round) {
    const core::Game game = corpus_game(round, rng);
    const core::BidVector bids = game.truthful_bids();
    game.bind_graph(ctx, bids);
    EXPECT_EQ(ctx.solve(),
              flow::solve_max_welfare(game.build_graph(bids), kSimplex))
        << "round " << round << " threads " << threads;
  }
}

// Cross-mechanism matrix on a 4-component game. M2's VCG prices (which
// M2-MinFee also charges) must equal whole-graph G_{-v} solves, and
// every mechanism the service can run must give the same outcome at the
// parameterized thread count as with no executor attached (every task
// in turn on the calling thread).
TEST_P(ShardedEquivalenceTest, AllMechanismsAllSolversBitIdentical) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  util::Rng rng(0xFACADE);
  const core::Game game = clustered_game(4, 12, rng);
  const std::string where = "threads " + std::to_string(threads);

  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  const std::vector<double> prices =
      core::M2Vcg().vcg_prices(ctx, game, game.truthful_bids());
  const std::vector<double> reference = whole_graph_vcg_prices(game);
  ASSERT_EQ(prices.size(), reference.size());
  for (std::size_t v = 0; v < prices.size(); ++v) {
    expect_bits_equal(prices[v], reference[v],
                      "M2 " + where + " player " + std::to_string(v));
  }

  std::vector<std::unique_ptr<core::Mechanism>> mechanisms;
  mechanisms.push_back(std::make_unique<core::M1FixedFee>(0.001, 3.0));
  mechanisms.push_back(std::make_unique<core::M2Vcg>());
  mechanisms.push_back(std::make_unique<core::M2MinFee>(0.001));
  mechanisms.push_back(std::make_unique<core::M3DoubleAuction>());
  mechanisms.push_back(std::make_unique<core::M4DelayedAuction>(1.0));
  for (const auto& mechanism : mechanisms) {
    flow::SolveContext pooled;
    pooled.set_executor(&executor);
    flow::SolveContext inline_ctx;
    const core::Outcome want = mechanism->run_truthful(inline_ctx, game);
    const core::Outcome got = mechanism->run_truthful(pooled, game);
    expect_outcomes_identical(got, want,
                              std::string(mechanism->name()) + " " + where);
  }
}

// VCG prices compared directly against whole-graph G_{-v} solves: M2
// deals the buyers to its tasks differently at every thread count,
// and each task reuses one masked graph copy and one workspace across
// its buyers, yet every price must be the fresh solve's.
TEST_P(ShardedEquivalenceTest, VcgPricesBitIdentical) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  util::Rng rng(0xABCD);
  const core::M2Vcg mechanism;
  for (int round = 0; round < 10; ++round) {
    const core::Game game = clustered_game(1 + round % 4, 10, rng);
    flow::SolveContext ctx;
    ctx.set_executor(&executor);
    const std::vector<double> want = whole_graph_vcg_prices(game);
    const std::vector<double> got =
        mechanism.vcg_prices(ctx, game, game.truthful_bids());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      expect_bits_equal(got[v], want[v],
                        "round " + std::to_string(round) + " player " +
                            std::to_string(v));
    }
  }
}

// One settled component (a gaining arc, no gaining cycle) beside an
// active BA game. The context solves the whole bound graph, as the flat
// solve does, so the active component's gaining cycles defeat the
// zero-flow certificate for both, and both report the same circulation
// and the same simplex work.
TEST_P(ShardedEquivalenceTest, QuiescentBesideActiveComponentMatchesFlatSolve) {
  const int threads = GetParam();
  ParallelExecutor executor(threads);
  util::Rng rng(0x9E1D);
  gen::GameConfig config;
  config.depleted_share = 0.3;
  const core::Game game = gen::random_ba_game(12, 2, config, rng);
  const flow::NodeId base = game.num_players();
  core::Game merged(base + 3);
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    const core::GameEdge& edge = game.edge(e);
    merged.add_edge(edge.from, edge.to, edge.capacity, edge.tail_valuation,
                    edge.head_valuation);
  }
  merged.add_edge(base, base + 1, 5, 0.0, 0.01);
  merged.add_edge(base + 1, base + 2, 5, -0.02, 0.0);
  merged.add_edge(base + 2, base, 5, 0.0, 0.0);
  const core::BidVector bids = merged.truthful_bids();
  const std::string where = "threads " + std::to_string(threads);

  flow::SolveStats want_stats;
  const flow::Circulation want =
      flow::solve_max_welfare(merged.build_graph(bids), kSimplex, &want_stats);
  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  merged.bind_graph(ctx, bids);
  flow::SolveStats got_stats;
  EXPECT_EQ(ctx.solve(&got_stats), want) << where;
  EXPECT_EQ(ctx.last_component_count(), 2) << where;
  EXPECT_GT(flow::total_volume(want), 0) << where;
  EXPECT_EQ(want_stats.zero_flow_certified, 0) << where;
  EXPECT_EQ(got_stats.zero_flow_certified, want_stats.zero_flow_certified)
      << where;
  EXPECT_EQ(got_stats.pivots, want_stats.pivots) << where;
  EXPECT_EQ(got_stats.bf_passes, want_stats.bf_passes) << where;
  EXPECT_EQ(got_stats.cycles_cancelled, want_stats.cycles_cancelled) << where;
  EXPECT_EQ(got_stats.units_pushed, want_stats.units_pushed) << where;
  EXPECT_EQ(got_stats.fallbacks, want_stats.fallbacks) << where;
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ShardedEquivalenceTest,
                         ::testing::Values(1, 2, 8));

// verify_dual under the network simplex's final potentials agrees with
// the residual-cycle certificate on the equivalence corpus, for both
// solvers' optima and for the zero flow.
TEST(ShardedDualTest, VerifyDualAgreesWithIsOptimalOnCorpus) {
  util::Rng rng(0x5EED5);
  flow::Workspace ws;
  int with_basis = 0;
  for (int round = 0; round < 100; ++round) {
    const core::Game game = corpus_game(round, rng);
    const flow::Graph g = game.build_graph(game.truthful_bids());
    flow::SolveStats stats;
    const flow::Circulation f_ns = flow::solve_max_welfare(
        g, ws, flow::SolverKind::kNetworkSimplex, &stats);
    if (stats.zero_flow_certified == 1) continue;  // no basis, no duals
    ++with_basis;
    const flow::Circulation f_bf =
        flow::solve_max_welfare(g, flow::SolverKind::kBellmanFord);
    for (const flow::Circulation& f :
         {f_ns, f_bf, flow::zero_circulation(g)}) {
      EXPECT_EQ(flow::verify_dual(g, f, ws.ns.pi), flow::is_optimal(g, f))
          << "round " << round;
    }
    EXPECT_TRUE(flow::verify_dual(g, f_bf, ws.ns.pi)) << "round " << round;
  }
  EXPECT_EQ(with_basis, 100);
}

// On a 5-component game the context's SolveStats counters match the
// flat whole-graph solve's, and the one structure build is the bind's.
// The component count is the cluster count.
TEST(ShardedStatsTest, CountersSumAcrossComponents) {
  util::Rng rng(0x57A75);
  const core::Game game = clustered_game(5, 10, rng);
  const core::BidVector bids = game.truthful_bids();

  flow::SolveStats want;
  const flow::Circulation f_whole =
      flow::solve_max_welfare(game.build_graph(bids), kSimplex, &want);

  ParallelExecutor executor(4);
  flow::SolveContext sharded;
  sharded.set_executor(&executor);
  game.bind_graph(sharded, bids);
  flow::SolveStats got;
  const flow::Circulation f_sharded = sharded.solve(&got);

  EXPECT_EQ(f_sharded, f_whole);
  EXPECT_EQ(sharded.last_component_count(), 5);
  // A 5-component game has cycles in more than one component, so a
  // "last component wins" regression would under-report here.
  EXPECT_GT(want.pivots, 0);
  EXPECT_EQ(got.pivots, want.pivots);
  EXPECT_EQ(got.bf_passes, want.bf_passes);
  EXPECT_EQ(got.zero_flow_certified, want.zero_flow_certified);
  EXPECT_EQ(got.cycles_cancelled, want.cycles_cancelled);
  EXPECT_EQ(got.units_pushed, want.units_pushed);
  EXPECT_EQ(got.fallbacks, want.fallbacks);
  // The bind built the graph once; the solve built nothing.
  EXPECT_EQ(sharded.stats().structure_builds, 1);
}

// End-to-end: a service-backed simulation at 8 threads settles the same
// network, epoch by epoch (digest equality), as the same run at 1
// thread.
TEST(ShardedServiceTest, NetworkDigestsMatchAcrossThreadCounts) {
  const auto mechanism =
      core::make_mechanism("m3", core::MechanismOptions{});
  ASSERT_NE(mechanism, nullptr);

  sim::SimulationConfig config = testutil::small_config(/*seed=*/11);
  config.epochs = 5;
  config.payments_per_epoch = 100;

  ServiceBackend single(*mechanism, 1024, /*threads=*/1);
  pcn::Network net_single(0);
  sim::run_simulation(config, &single, &net_single);

  ServiceBackend sharded(*mechanism, 1024, /*threads=*/8);
  pcn::Network net_sharded(0);
  sim::run_simulation(config, &sharded, &net_sharded);

  testutil::expect_networks_equal(net_single, net_sharded);
  const std::vector<EpochReport> reports_single = single.service()->reports();
  const std::vector<EpochReport> reports_sharded =
      sharded.service()->reports();
  ASSERT_EQ(reports_single.size(), reports_sharded.size());
  for (std::size_t i = 0; i < reports_single.size(); ++i) {
    EXPECT_EQ(reports_sharded[i].network_digest,
              reports_single[i].network_digest)
        << "epoch " << i;
  }
}

}  // namespace
}  // namespace musketeer::svc
