// Workspace-reuse equivalence: one SolveContext driven through many
// randomized games must return circulations and decompositions
// bit-identical to a flat whole-graph solve on a fresh graph and
// workspace, with exact rebuild accounting — including gains-only
// rebinds. Also pins flow::mask_node to the paper's G_{-v}.
#include "flow/solve_context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "flow/decompose.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"

namespace musketeer::flow {
namespace {

void expect_same_cycles(const std::vector<CycleFlow>& got,
                        const std::vector<CycleFlow>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].edges, want[i].edges);
    EXPECT_EQ(got[i].amount, want[i].amount);
  }
}

class SolveContextEquivalenceTest
    : public ::testing::TestWithParam<SolverKind> {};

// The headline satellite: 100 randomized games of varying size through
// ONE reused context, each checked bit-for-bit against a fresh solve.
TEST_P(SolveContextEquivalenceTest, HundredRandomGamesBitIdentical) {
  const SolverKind kind = GetParam();
  util::Rng rng(0xC0FFEE);
  SolveContext ctx;
  long long graph_builds = 0;
  for (int round = 0; round < 100; ++round) {
    gen::GameConfig config;
    config.depleted_share = 0.2 + 0.2 * (round % 3);
    const NodeId n = 8 + 4 * (round % 7);  // varying sizes force rebuilds
    const core::Game game = gen::random_ba_game(n, 2, config, rng);
    const core::BidVector bids = game.truthful_bids();

    const Graph fresh = game.build_graph(bids);
    SolveStats fresh_stats;
    const Circulation f_fresh = solve_max_welfare(fresh, kind, &fresh_stats);
    const auto cycles_fresh = decompose_sign_consistent(fresh, f_fresh);

    const long long builds_before = ctx.stats().structure_builds;
    game.bind_graph(ctx, bids);
    graph_builds += ctx.stats().structure_builds - builds_before;
    SolveStats ctx_stats;
    const Circulation f_ctx = ctx.solve(kind, &ctx_stats);

    // BA games are connected, so the context solves one component that
    // is the whole graph: even the solver's work counters match.
    EXPECT_EQ(ctx.last_component_count(), 1) << "round " << round;
    EXPECT_EQ(f_ctx, f_fresh) << "round " << round;
    EXPECT_EQ(ctx_stats.cycles_cancelled, fresh_stats.cycles_cancelled);
    EXPECT_EQ(ctx_stats.pivots, fresh_stats.pivots);
    EXPECT_EQ(ctx_stats.zero_flow_certified, fresh_stats.zero_flow_certified);
    EXPECT_EQ(ctx_stats.units_pushed, fresh_stats.units_pushed);
    EXPECT_EQ(ctx_stats.fallbacks, fresh_stats.fallbacks);
    expect_same_cycles(ctx.decompose(f_ctx), cycles_fresh);
  }
  // Sizes cycle with period 7, so most rounds rebind a recently seen
  // structure only when the size repeats back-to-back — but every round
  // either rebuilt or rebound, never both, and each graph build added
  // one component slot build.
  EXPECT_EQ(graph_builds + ctx.stats().rebinds, 100);
  EXPECT_EQ(ctx.stats().structure_builds, 2 * graph_builds);
  EXPECT_EQ(ctx.stats().solves, 100);
}

// Same topology, fresh bids each round: after the first build every
// bind must take the in-place rebind path and report zero rebuilds.
TEST_P(SolveContextEquivalenceTest, StableTopologyRebindsOnly) {
  const SolverKind kind = GetParam();
  util::Rng rng(42);
  gen::GameConfig config;
  const gen::Topology topology = gen::barabasi_albert(24, 2, rng);
  SolveContext ctx;
  for (int round = 0; round < 20; ++round) {
    const core::Game game = gen::random_game(24, topology, config, rng);
    const core::BidVector bids = game.truthful_bids();
    game.bind_graph(ctx, bids);
    SolveStats stats;
    const Circulation f_ctx = ctx.solve(kind, &stats);
    // The first solve builds the bound graph plus one slot per component.
    EXPECT_EQ(stats.graph_rebuilds,
              round == 0 ? 1 + ctx.last_component_count() : 0)
        << "round " << round;

    const Graph fresh = game.build_graph(bids);
    EXPECT_EQ(f_ctx, solve_max_welfare(fresh, kind)) << "round " << round;
  }
  EXPECT_EQ(ctx.stats().structure_builds, 1 + ctx.last_component_count());
  EXPECT_EQ(ctx.stats().rebinds, 19);
}

// A gains-only rebind (same structure and capacities) must refresh the
// component slots in place and match a from-scratch graph carrying the
// same gains.
TEST_P(SolveContextEquivalenceTest, RebindGainsMatchesFreshGraph) {
  const SolverKind kind = GetParam();
  util::Rng rng(7);
  gen::GameConfig config;
  const core::Game game = gen::random_ba_game(20, 2, config, rng);
  const core::BidVector bids = game.truthful_bids();

  SolveContext ctx;
  game.bind_graph(ctx, bids);
  ctx.solve(kind);

  for (int round = 0; round < 10; ++round) {
    // Graph gains are tail + head bids, so a zero head bid carries the
    // whole gain in the tail slot.
    core::BidVector regained = bids;
    for (std::size_t e = 0; e < regained.size(); ++e) {
      regained.tail[e] = rng.uniform_real(-0.05, 0.05);
      regained.head[e] = 0.0;
    }
    game.bind_graph(ctx, regained);

    Graph fresh = game.build_graph(bids);
    for (EdgeId e = 0; e < fresh.num_edges(); ++e) {
      fresh.set_gain(e, regained.tail[static_cast<std::size_t>(e)]);
    }
    SolveStats stats;
    EXPECT_EQ(ctx.solve(kind, &stats), solve_max_welfare(fresh, kind));
    EXPECT_EQ(stats.graph_rebuilds, 0);
  }
}

// mask_node must reproduce build_graph_without (the paper's G_{-v})
// exactly, for every player, and restore_capacities must undo it.
TEST_P(SolveContextEquivalenceTest, MaskPlayerMatchesBuildWithout) {
  const SolverKind kind = GetParam();
  util::Rng rng(99);
  gen::GameConfig config;
  config.depleted_share = 0.4;
  const core::Game game = gen::random_ba_game(16, 2, config, rng);
  const core::BidVector bids = game.truthful_bids();

  Graph g = game.build_graph(bids);
  const Circulation f_full = solve_max_welfare(g, kind);
  Workspace ws;
  SavedCapacities saved;
  for (core::PlayerId v = 0; v < game.num_players(); ++v) {
    mask_node(g, v, saved);
    const Graph without = game.build_graph_without(bids, v);
    ASSERT_EQ(g.num_edges(), without.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(g.edge(e).capacity, without.edge(e).capacity);
      EXPECT_EQ(g.scaled_gain(e), without.scaled_gain(e));
    }
    EXPECT_EQ(solve_max_welfare(g, ws, kind), solve_max_welfare(without, kind));
    restore_capacities(g, saved);
  }
  // After the last restore the graph solves the unmasked game again.
  EXPECT_EQ(solve_max_welfare(g, ws, kind), f_full);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolveContextEquivalenceTest,
                         ::testing::Values(SolverKind::kBellmanFord,
                                           SolverKind::kNetworkSimplex));

TEST(SolveContextTest, SolveBeforeBindDies) {
  SolveContext ctx;
  EXPECT_DEATH(ctx.solve(), "before bind");
}

TEST(SolveContextTest, LocalContextIsPerThreadSingleton) {
  SolveContext& a = local_context();
  SolveContext& b = local_context();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace musketeer::flow
