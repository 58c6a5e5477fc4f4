#include "flow/bellman_ford.hpp"

#include <gtest/gtest.h>

#include "flow/residual.hpp"

namespace musketeer::flow {
namespace {

// Residual of the zero circulation: forward arcs only, cost = -gain.
std::vector<ResidualArc> zero_residual(const Graph& g) {
  return build_residual(g, zero_circulation(g));
}

TEST(BellmanFordTest, NoCycleInAcyclicGraph) {
  Graph g(3);
  g.add_edge(0, 1, 1, 0.05);
  g.add_edge(1, 2, 1, 0.05);
  const auto arcs = zero_residual(g);
  EXPECT_FALSE(find_negative_cycle(g.num_nodes(), arcs).has_value());
}

TEST(BellmanFordTest, PositiveGainCycleIsNegativeCostCycle) {
  Graph g(3);
  g.add_edge(0, 1, 1, 0.05);
  g.add_edge(1, 2, 1, -0.01);
  g.add_edge(2, 0, 1, 0.0);
  const auto arcs = zero_residual(g);
  const auto cycle = find_negative_cycle(g.num_nodes(), arcs);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
  std::int64_t cost = 0;
  for (int a : *cycle) cost += arcs[static_cast<std::size_t>(a)].cost;
  EXPECT_LT(cost, 0);
}

TEST(BellmanFordTest, ZeroGainCycleIsNotNegative) {
  Graph g(3);
  g.add_edge(0, 1, 1, 0.0);
  g.add_edge(1, 2, 1, 0.0);
  g.add_edge(2, 0, 1, 0.0);
  EXPECT_FALSE(
      find_negative_cycle(g.num_nodes(), zero_residual(g)).has_value());
}

TEST(BellmanFordTest, NetNegativeGainCycleIsNotSelected) {
  Graph g(3);
  g.add_edge(0, 1, 1, 0.01);
  g.add_edge(1, 2, 1, -0.02);
  g.add_edge(2, 0, 1, 0.0);
  EXPECT_FALSE(
      find_negative_cycle(g.num_nodes(), zero_residual(g)).has_value());
}

TEST(BellmanFordTest, FindsCycleAmongSeveral) {
  Graph g(6);
  // Cycle A (0-1-2) net gain 0.01; cycle B (3-4-5) net gain 0.06.
  g.add_edge(0, 1, 1, 0.02);
  g.add_edge(1, 2, 1, -0.005);
  g.add_edge(2, 0, 1, -0.005);
  g.add_edge(3, 4, 1, 0.03);
  g.add_edge(4, 5, 1, 0.03);
  g.add_edge(5, 3, 1, 0.0);
  const auto arcs = zero_residual(g);
  const auto cycle = find_negative_cycle(g.num_nodes(), arcs);
  ASSERT_TRUE(cycle.has_value());
  std::int64_t cost = 0;
  for (int a : *cycle) cost += arcs[static_cast<std::size_t>(a)].cost;
  EXPECT_LT(cost, 0);
}

TEST(BellmanFordTest, EmptyArcSetHasNoCycle) {
  EXPECT_FALSE(find_negative_cycle(5, {}).has_value());
}

TEST(BellmanFordTest, BackwardArcsEnableCycleAfterFlow) {
  // With flow on 0->1, the residual backward arc 1->0 (cost +gain of the
  // forward edge, i.e. refunding a negative gain) can complete a cycle.
  Graph g(2);
  const EdgeId bad = g.add_edge(0, 1, 5, -0.03);   // seller edge
  g.add_edge(0, 1, 5, 0.05);                       // cheaper parallel edge
  Circulation f = zero_circulation(g);
  f[static_cast<std::size_t>(bad)] = 5;  // wasteful: flow on the -0.03 edge
  // Not a circulation by itself, but residual cycle detection is local:
  // moving flow from the bad edge to the parallel good edge is a
  // negative cycle (backward bad arc + forward good arc).
  const auto arcs = build_residual(g, f);
  const auto cycle = find_negative_cycle(g.num_nodes(), arcs);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 2u);
}

/// A 500-node path p0 -> ... -> p499 into node c0 of the 3-cycle
/// c0 -> c1 -> c2 -> c0 (nodes 500–502), every arc at cost -1. The path
/// arcs are listed back to front, so distances travel one node per pass
/// and the path alone converges in its 501st pass; the cycle's arcs are
/// listed against its direction, after the entry arc, so its predecessor
/// links close only once the cycle undercuts the entry.
std::vector<ResidualArc> path_into_cycle(bool with_cycle) {
  std::vector<ResidualArc> arcs;
  const auto arc = [&arcs](NodeId from, NodeId to) {
    arcs.push_back(ResidualArc{from, to, -1, 1, 0, true});
  };
  for (NodeId v = 498; v >= 0; --v) arc(v, v + 1);
  arc(499, 500);
  if (with_cycle) arc(502, 500);
  arc(501, 502);
  arc(500, 501);
  return arcs;
}

// The predecessor walk after each pass returns the cycle as soon as its
// links close, instead of running all n = 503 passes; without the
// closing arc the same path still converges to "no cycle".
TEST(BellmanFord, StopsAtFirstPredecessorCycle) {
  BellmanFordScratch scratch;
  const auto cycle = find_negative_cycle(503, path_into_cycle(true), scratch);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
  EXPECT_EQ(scratch.passes, 3);

  EXPECT_FALSE(
      find_negative_cycle(503, path_into_cycle(false), scratch).has_value());
  EXPECT_EQ(scratch.passes, 501);
}

}  // namespace
}  // namespace musketeer::flow
