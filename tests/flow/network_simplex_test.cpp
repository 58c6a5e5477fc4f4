#include "flow/network_simplex.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "flow/bellman_ford.hpp"
#include "flow/residual.hpp"
#include "gen/game_gen.hpp"
#include "util/rng.hpp"

namespace musketeer::flow {
namespace {

/// The network simplex through the dispatch, which also asserts feasibility.
Circulation solve_ns(const Graph& g, SolveStats* stats = nullptr) {
  return solve_max_welfare(g, SolverKind::kNetworkSimplex, stats);
}

TEST(NetworkSimplexTest, EmptyGraph) {
  Graph g(4);
  EXPECT_EQ(total_volume(solve_ns(g)), 0);
}

TEST(NetworkSimplexTest, SaturatesProfitableCycle) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f = solve_ns(g);
  EXPECT_EQ(f, (Circulation{7, 7, 7}));
  EXPECT_TRUE(is_optimal(g, f));
}

TEST(NetworkSimplexTest, LeavesUnprofitableCyclesAlone) {
  Graph g(3);
  g.add_edge(0, 1, 5, 0.01);
  g.add_edge(1, 2, 5, -0.02);
  g.add_edge(2, 0, 5, 0.0);
  EXPECT_EQ(total_volume(solve_ns(g)), 0);
}

TEST(NetworkSimplexTest, CompetingBuyersResolvedByBid) {
  Graph g(4);
  const EdgeId shared = g.add_edge(2, 3, 5, 0.0);
  const EdgeId buyer_a = g.add_edge(3, 0, 10, 0.04);
  g.add_edge(0, 2, 10, 0.0);
  const EdgeId buyer_b = g.add_edge(3, 1, 10, 0.01);
  g.add_edge(1, 2, 10, 0.0);
  const Circulation f = solve_ns(g);
  EXPECT_EQ(f[static_cast<std::size_t>(shared)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_a)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_b)], 0);
}

TEST(NetworkSimplexTest, ReportsPivotStats) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  SolveStats stats;
  solve_ns(g, &stats);
  EXPECT_GE(stats.pivots, 1);
  EXPECT_EQ(stats.cycles_cancelled, 0);
  EXPECT_EQ(stats.zero_flow_certified, 0);
}

// A settled game: arc 0->1 gains, so it prices into the initial basis,
// but no cycle gains overall. The zero-flow certificate closes the solve
// before the simplex pivots (without it, this game took 2 pivots).
TEST(NetworkSimplexTest, QuiescentGameCertifiedWithoutPivots) {
  Graph g(3);
  g.add_edge(0, 1, 5, 0.01);
  g.add_edge(1, 2, 5, -0.02);
  g.add_edge(2, 0, 5, 0.0);
  SolveStats stats;
  EXPECT_EQ(solve_ns(g, &stats), zero_circulation(g));
  EXPECT_EQ(stats.pivots, 0);
  EXPECT_EQ(stats.zero_flow_certified, 1);
}

TEST(NetworkSimplexTest, ViaSolverKindDispatch) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f =
      solve_max_welfare(g, SolverKind::kNetworkSimplex);
  EXPECT_TRUE(is_optimal(g, f));
}

// The decisive suite: exact agreement with the proven cancelling solver
// on a broad family of random instances, with optimality certificates.
class NetworkSimplexRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkSimplexRandomTest, AgreesWithBellmanFordExactly) {
  util::Rng rng(GetParam());
  const auto n = static_cast<NodeId>(rng.uniform_int(3, 20));
  Graph g(n);
  const int m = static_cast<int>(rng.uniform_int(n, 5 * n));
  for (int e = 0; e < m; ++e) {
    const auto u = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    g.add_edge(u, v, rng.uniform_int(1, 30), rng.uniform_real(-0.05, 0.05));
  }
  const Circulation f_ns = solve_ns(g);
  const Circulation f_bf = solve_max_welfare(g, SolverKind::kBellmanFord);
  ASSERT_TRUE(is_feasible(g, f_ns));
  EXPECT_TRUE(is_optimal(g, f_ns)) << "no exact optimality certificate";
  EXPECT_EQ(scaled_welfare(g, f_ns), scaled_welfare(g, f_bf));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NetworkSimplexRandomTest,
                         ::testing::Range<std::uint64_t>(2000, 2080));

TEST(NetworkSimplexTest, LightningScaleGameSolves) {
  util::Rng rng(4096);
  gen::GameConfig config;
  config.depleted_share = 0.3;
  const core::Game game = gen::random_ba_game(256, 2, config, rng);
  const Graph g = game.build_graph(game.truthful_bids());
  const Circulation f = solve_ns(g);
  EXPECT_TRUE(is_optimal(g, f));
}

/// The games bench/e7_solver_ablation solves, in its order: three
/// seeded BA games at each of n = 16, 32, 64 and 128.
std::vector<Graph> e7_games() {
  util::Rng rng(2468);
  std::vector<Graph> games;
  for (const NodeId n : {16, 32, 64, 128}) {
    for (int trial = 0; trial < 3; ++trial) {
      gen::GameConfig config;
      config.depleted_share = 0.3;
      config.capacity_max = 50;
      const core::Game game = gen::random_ba_game(n, 2, config, rng);
      games.push_back(game.build_graph(game.truthful_bids()));
    }
  }
  return games;
}

// The subtree update must leave the Dantzig pivot sequence exactly as a
// full tree rebuild after every pivot had it: these are the pivot counts
// of that rebuild on E7's games (means 48 / 135 / 259 / 577 per size).
TEST(NetworkSimplexTest, PivotCountsPinnedOnE7Games) {
  const int want[] = {39,  65,  41,  133, 134, 138,
                      254, 248, 276, 563, 597, 572};
  const std::vector<Graph> games = e7_games();
  ASSERT_EQ(games.size(), std::size(want));
  Workspace ws;
  for (std::size_t i = 0; i < games.size(); ++i) {
    SolveStats stats;
    solve_network_simplex(games[i], ws, &stats);
    EXPECT_EQ(stats.pivots, want[i]) << "game " << i;
    EXPECT_EQ(stats.fallbacks, 0) << "game " << i;
  }
}

/// `f` with one unit pushed around a residual cycle that loses welfare
/// (found as a negative cycle under negated costs): feasible, and
/// strictly worse than `f`.
Circulation one_unit_worse(const Graph& g, const Circulation& f) {
  std::vector<ResidualArc> arcs = build_residual(g, f);
  for (ResidualArc& arc : arcs) arc.cost = -arc.cost;
  const auto cycle = find_negative_cycle(g.num_nodes(), arcs);
  EXPECT_TRUE(cycle.has_value());
  Circulation worse = f;
  if (cycle) push_along(arcs, *cycle, 1, worse);
  return worse;
}

// The simplex's final potentials are optimal LP duals, so verify_dual
// under them agrees with the residual-cycle certificate on any feasible
// circulation: both optima (by complementary slackness, Bellman–Ford's
// too), the zero flow, and an optimum moved one unit off.
TEST(NetworkSimplexTest, VerifyDualAgreesWithIsOptimalOnE7Games) {
  Workspace ws;
  int index = 0;
  for (const Graph& g : e7_games()) {
    SCOPED_TRACE(index++);
    SolveStats stats;
    const Circulation f_ns = solve_network_simplex(g, ws, &stats);
    ASSERT_GT(stats.pivots, 0);
    const std::vector<std::int64_t> pi = ws.ns.pi;
    const Circulation f_bf = solve_max_welfare(g, SolverKind::kBellmanFord);
    const Circulation worse = one_unit_worse(g, f_ns);
    ASSERT_TRUE(is_feasible(g, worse));
    EXPECT_LT(scaled_welfare(g, worse), scaled_welfare(g, f_ns));
    EXPECT_TRUE(verify_dual(g, f_ns, pi));
    EXPECT_TRUE(verify_dual(g, f_bf, pi));
    EXPECT_FALSE(verify_dual(g, worse, pi));
    for (const Circulation& f : {f_ns, f_bf, zero_circulation(g), worse}) {
      EXPECT_EQ(verify_dual(g, f, pi), is_optimal(g, f));
    }
  }
}

TEST(NetworkSimplexTest, DegenerateManyZeroCapacityEdges) {
  Graph g(4);
  g.add_edge(0, 1, 0, 0.05);
  g.add_edge(1, 2, 0, 0.05);
  g.add_edge(2, 0, 0, 0.05);
  g.add_edge(0, 3, 5, 0.02);
  g.add_edge(3, 0, 5, 0.0);
  const Circulation f = solve_ns(g);
  EXPECT_TRUE(is_optimal(g, f));
  EXPECT_EQ(f[3], 5);
  EXPECT_EQ(f[4], 5);
}

}  // namespace
}  // namespace musketeer::flow
