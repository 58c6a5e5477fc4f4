#include "flow/solver.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace musketeer::flow {
namespace {

Graph random_graph(NodeId n, int edges, util::Rng& rng) {
  Graph g(n);
  for (int e = 0; e < edges; ++e) {
    const auto u = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    g.add_edge(u, v, rng.uniform_int(1, 20), rng.uniform_real(-0.05, 0.05));
  }
  return g;
}

TEST(SolverTest, EmptyGraphSolvesToZero) {
  Graph g(4);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(total_volume(f), 0);
}

TEST(SolverTest, SaturatesProfitableCycle) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(f, (Circulation{7, 7, 7}));  // bottleneck saturated
  EXPECT_NEAR(welfare(g, f), 7 * 0.02, 1e-12);
}

TEST(SolverTest, IgnoresUnprofitableCycle) {
  Graph g(3);
  g.add_edge(0, 1, 5, 0.01);
  g.add_edge(1, 2, 5, -0.02);
  g.add_edge(2, 0, 5, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(total_volume(f), 0);
}

TEST(SolverTest, IgnoresZeroWelfareCycle) {
  Graph g(3);
  g.add_edge(0, 1, 5, 0.01);
  g.add_edge(1, 2, 5, -0.01);
  g.add_edge(2, 0, 5, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(total_volume(f), 0);
}

TEST(SolverTest, SharedBottleneckPrefersHigherBidCycle) {
  // Two buyers compete for the same seller capacity; the higher bid wins
  // the scarce units (the paper's "channels are prioritized by bids").
  Graph g(4);
  // Shared seller edge 2->3 capacity 5.
  const EdgeId shared = g.add_edge(2, 3, 5, 0.0);
  // Buyer A cycle: 3->0->2 with bid 0.04 on 3->0.
  const EdgeId buyer_a = g.add_edge(3, 0, 10, 0.04);
  g.add_edge(0, 2, 10, 0.0);
  // Buyer B cycle: 3->1->2 with bid 0.01 on 3->1.
  const EdgeId buyer_b = g.add_edge(3, 1, 10, 0.01);
  g.add_edge(1, 2, 10, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_EQ(f[static_cast<std::size_t>(shared)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_a)], 5);
  EXPECT_EQ(f[static_cast<std::size_t>(buyer_b)], 0);
}

TEST(SolverTest, StatsAreReported) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  SolveStats stats;
  solve_max_welfare(g, SolverKind::kBellmanFord, &stats);
  EXPECT_GE(stats.cycles_cancelled, 1);
  EXPECT_GE(stats.units_pushed, 7);
}

TEST(SolverTest, IsOptimalAcceptsSolverOutputAndRejectsWorse) {
  Graph g(3);
  g.add_edge(0, 1, 7, 0.03);
  g.add_edge(1, 2, 9, -0.01);
  g.add_edge(2, 0, 8, 0.0);
  const Circulation f = solve_max_welfare(g);
  EXPECT_TRUE(is_optimal(g, f));
  EXPECT_FALSE(is_optimal(g, zero_circulation(g)));
  EXPECT_FALSE(is_optimal(g, Circulation{8, 8, 8}));  // infeasible
}

// Property suite: on random graphs, both solvers reach the same optimum
// exactly and pass the negative-residual-cycle optimality certificate.
class SolverRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverRandomTest, SolversAgreeAndCertifyOptimal) {
  util::Rng rng(GetParam());
  const auto n = static_cast<NodeId>(rng.uniform_int(3, 12));
  const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
  const Graph g = random_graph(n, m, rng);

  const Circulation f_bf = solve_max_welfare(g, SolverKind::kBellmanFord);
  const Circulation f_ns = solve_max_welfare(g, SolverKind::kNetworkSimplex);

  ASSERT_TRUE(is_feasible(g, f_bf));
  ASSERT_TRUE(is_feasible(g, f_ns));
  // Equal objective values (flows themselves may differ across optima).
  EXPECT_EQ(scaled_welfare(g, f_bf), scaled_welfare(g, f_ns));
  EXPECT_TRUE(is_optimal(g, f_bf));
  EXPECT_TRUE(is_optimal(g, f_ns));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SolverRandomTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace musketeer::flow
