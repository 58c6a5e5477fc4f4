// Workspace-reuse equivalence: one SolveContext driven through many
// randomized games must return circulations and decompositions
// bit-identical to a flat network simplex solve on a fresh graph and
// workspace, with exact rebuild accounting — including gains-only
// rebinds. Also pins flow::mask_node to the paper's G_{-v} under both
// solvers, and the context's component count against a BFS reference.
#include "flow/solve_context.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "flow/decompose.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "util/rng.hpp"

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

// The context always solves with the network simplex.
constexpr SolverKind kSimplex = SolverKind::kNetworkSimplex;

// The headline satellite: 100 randomized games of varying size through
// ONE reused context, each checked bit-for-bit against a fresh solve.
TEST(SolveContextEquivalenceTest, HundredRandomGamesBitIdentical) {
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
    const Circulation f_fresh =
        solve_max_welfare(fresh, kSimplex, &fresh_stats);
    const auto cycles_fresh = decompose_sign_consistent(fresh, f_fresh);

    const long long builds_before = ctx.stats().structure_builds;
    game.bind_graph(ctx, bids);
    graph_builds += ctx.stats().structure_builds - builds_before;
    SolveStats ctx_stats;
    const Circulation f_ctx = ctx.solve(&ctx_stats);

    // BA games are connected: one component. The context solves the
    // bound graph itself, so even the solver's work counters match.
    EXPECT_EQ(ctx.last_component_count(), 1) << "round " << round;
    EXPECT_EQ(f_ctx, f_fresh) << "round " << round;
    EXPECT_EQ(ctx_stats.cycles_cancelled, fresh_stats.cycles_cancelled);
    EXPECT_EQ(ctx_stats.pivots, fresh_stats.pivots);
    EXPECT_EQ(ctx_stats.bf_passes, fresh_stats.bf_passes);
    EXPECT_EQ(ctx_stats.zero_flow_certified, fresh_stats.zero_flow_certified);
    EXPECT_EQ(ctx_stats.units_pushed, fresh_stats.units_pushed);
    EXPECT_EQ(ctx_stats.fallbacks, fresh_stats.fallbacks);
    expect_same_cycles(ctx.decompose(f_ctx), cycles_fresh);
  }
  // Sizes cycle with period 7, so most rounds rebind a recently seen
  // structure only when the size repeats back-to-back — but every round
  // either rebuilt or rebound, never both, and the solves built nothing.
  EXPECT_EQ(graph_builds + ctx.stats().rebinds, 100);
  EXPECT_EQ(ctx.stats().structure_builds, graph_builds);
  EXPECT_EQ(ctx.stats().solves, 100);
}

// Same topology, fresh bids each round: after the first build every
// bind must take the in-place rebind path and report zero rebuilds.
TEST(SolveContextEquivalenceTest, StableTopologyRebindsOnly) {
  util::Rng rng(42);
  gen::GameConfig config;
  const gen::Topology topology = gen::barabasi_albert(24, 2, rng);
  SolveContext ctx;
  for (int round = 0; round < 20; ++round) {
    const core::Game game = gen::random_game(24, topology, config, rng);
    const core::BidVector bids = game.truthful_bids();
    game.bind_graph(ctx, bids);
    const Circulation f_ctx = ctx.solve();
    // Only the first bind builds the graph.
    EXPECT_EQ(ctx.stats().structure_builds, 1) << "round " << round;

    const Graph fresh = game.build_graph(bids);
    EXPECT_EQ(f_ctx, solve_max_welfare(fresh, kSimplex)) << "round " << round;
  }
  EXPECT_EQ(ctx.stats().structure_builds, 1);
  EXPECT_EQ(ctx.stats().rebinds, 19);
}

// A gains-only rebind (same structure and capacities) must refresh the
// bound graph in place and match a from-scratch graph carrying the same
// gains.
TEST(SolveContextEquivalenceTest, RebindGainsMatchesFreshGraph) {
  util::Rng rng(7);
  gen::GameConfig config;
  const core::Game game = gen::random_ba_game(20, 2, config, rng);
  const core::BidVector bids = game.truthful_bids();

  SolveContext ctx;
  game.bind_graph(ctx, bids);
  ctx.solve();

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
    EXPECT_EQ(ctx.solve(), solve_max_welfare(fresh, kSimplex));
    EXPECT_EQ(ctx.stats().structure_builds, 1);
  }
}

// mask_node must reproduce build_graph_without (the paper's G_{-v})
// exactly, for every player, and restore_capacities must undo it. No
// context is involved, so this runs under both solver kinds: it is also
// where Bellman–Ford's workspace reuse is checked.
class MaskNodeEquivalenceTest
    : public ::testing::TestWithParam<SolverKind> {};

TEST_P(MaskNodeEquivalenceTest, MaskPlayerMatchesBuildWithout) {
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

INSTANTIATE_TEST_SUITE_P(AllSolvers, MaskNodeEquivalenceTest,
                         ::testing::Values(SolverKind::kBellmanFord,
                                           SolverKind::kNetworkSimplex));

/// Binds a flow::Graph as an edge-list source.
struct GraphSource {
  const Graph& g;
  NodeId num_nodes() const { return g.num_nodes(); }
  EdgeId num_edges() const { return g.num_edges(); }
  NodeId edge_from(EdgeId e) const { return g.edge(e).from; }
  NodeId edge_to(EdgeId e) const { return g.edge(e).to; }
  Amount capacity(EdgeId e) const { return g.edge(e).capacity; }
  double gain(EdgeId e) const { return g.edge(e).gain; }
};

/// Reference: BFS over the undirected edge set. Returns the edge count of
/// every component; isolated nodes belong to none.
std::vector<EdgeId> bfs_edges_per_component(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<NodeId>> adjacent(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    adjacent[static_cast<std::size_t>(g.edge(e).from)].push_back(g.edge(e).to);
    adjacent[static_cast<std::size_t>(g.edge(e).to)].push_back(g.edge(e).from);
  }
  std::vector<int> component(n, -1);
  int next = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (component[start] != -1 || adjacent[start].empty()) continue;
    std::queue<NodeId> frontier;
    frontier.push(static_cast<NodeId>(start));
    component[start] = next;
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (const NodeId w : adjacent[static_cast<std::size_t>(v)]) {
        if (component[static_cast<std::size_t>(w)] == -1) {
          component[static_cast<std::size_t>(w)] = next;
          frontier.push(w);
        }
      }
    }
    ++next;
  }
  std::vector<EdgeId> edges(static_cast<std::size_t>(next), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ++edges[static_cast<std::size_t>(
        component[static_cast<std::size_t>(g.edge(e).from)])];
  }
  return edges;
}

void expect_components(SolveContext& ctx, const Graph& g) {
  ctx.bind_from(GraphSource{g});
  const std::vector<EdgeId> want = bfs_edges_per_component(g);
  EXPECT_EQ(ctx.last_component_count(), static_cast<int>(want.size()));
}

TEST(SolveContextComponentTest, EmptyGraphHasNoComponents) {
  SolveContext ctx;
  ctx.bind_from(GraphSource{Graph(0)});
  EXPECT_EQ(ctx.last_component_count(), 0);
}

TEST(SolveContextComponentTest, IsolatedNodesAreNoComponent) {
  SolveContext ctx;
  ctx.bind_from(GraphSource{Graph(5)});
  EXPECT_EQ(ctx.last_component_count(), 0);
}

TEST(SolveContextComponentTest, SingleEdgeIsOneComponent) {
  Graph g(3);
  g.add_edge(0, 2, 5, 1.0);
  SolveContext ctx;
  ctx.bind_from(GraphSource{g});
  EXPECT_EQ(ctx.last_component_count(), 1);
}

TEST(SolveContextComponentTest, FullyConnectedIsOneComponent) {
  Graph g(6);
  for (NodeId v = 0; v < 6; ++v) g.add_edge(v, (v + 1) % 6, 4, 1.0);
  SolveContext ctx;
  ctx.bind_from(GraphSource{g});
  EXPECT_EQ(ctx.last_component_count(), 1);
}

// Capacity-0 edges still connect their endpoints: a depleted or masked
// edge is structurally present in every solver's arc layout.
TEST(SolveContextComponentTest, ZeroCapacityEdgesStillConnect) {
  Graph g(4);
  g.add_edge(0, 1, 3, 1.0);
  g.add_edge(1, 2, 0, 1.0);
  g.add_edge(2, 3, 3, 1.0);
  SolveContext ctx;
  ctx.bind_from(GraphSource{g});
  EXPECT_EQ(ctx.last_component_count(), 1);
}

// One reused context against the BFS reference on random graphs. The
// count is taken on structure builds only, so a rebind onto the same
// structure with other capacities keeps it.
TEST(SolveContextComponentTest, CountMatchesBfsOnRandomGraphs) {
  util::Rng rng(0xBADCAB);
  SolveContext ctx;
  for (int round = 0; round < 50; ++round) {
    const NodeId n = 2 + static_cast<NodeId>(rng.uniform(41));
    Graph g(n);
    const int m =
        static_cast<int>(rng.uniform(static_cast<std::uint64_t>(3 * n) + 1));
    for (int e = 0; e < m; ++e) {
      const NodeId from =
          static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
      NodeId to =
          static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
      if (to == from) to = (to + 1) % n;
      g.add_edge(from, to, static_cast<Amount>(rng.uniform(6)), 1.0);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_components(ctx, g);
    for (EdgeId e = 0; e < g.num_edges(); ++e) g.set_capacity(e, 0);
    const long long rebinds = ctx.stats().rebinds;
    expect_components(ctx, g);
    EXPECT_EQ(ctx.stats().rebinds, rebinds + 1);
  }
}

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
