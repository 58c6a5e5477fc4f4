// Cooperative-cancellation correctness for the circulation solvers.
//
// The deadline contract (DESIGN.md §14) promises two things at the
// solver layer:
//
//  1. A cancelled solve is RECOVERABLE: the workspace it unwound out of
//     stays structurally valid, and re-solving on it yields the exact
//     circulation a fresh, uncancelled solve produces — bit for bit.
//  2. An armed token that never fires is FREE of behavioral drift: the
//     solve runs the same iterations and returns the same bits as a
//     null-token solve (the overhead is gated separately by
//     bench/deadline_overhead).
//
// Both are swept across every SolverKind and 100 seeded random games,
// with the trip point varied so cancellation lands on different
// iteration boundaries (including poll 1, before any cycle work).
#include "flow/solver.hpp"

#include <gtest/gtest.h>

#include "flow/workspace.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace musketeer::flow {
namespace {

constexpr SolverKind kKinds[] = {
    SolverKind::kBellmanFord,
    SolverKind::kNetworkSimplex,
};

constexpr int kGames = 100;

Graph random_graph(NodeId n, int edges, util::Rng& rng) {
  Graph g(n);
  for (int e = 0; e < edges; ++e) {
    const auto u =
        static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    auto v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    g.add_edge(u, v, rng.uniform_int(1, 20), rng.uniform_real(-0.05, 0.05));
  }
  return g;
}

TEST(CancelTest, CancelThenResolveMatchesFreshSolve) {
  for (const SolverKind kind : kKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    for (std::uint64_t seed = 1; seed <= kGames; ++seed) {
      util::Rng rng(seed);
      const Graph g = random_graph(12, 30, rng);

      Workspace fresh_ws;
      const Circulation expected = solve_max_welfare(g, fresh_ws, kind);

      // Trip on a varying poll so the unwind exercises different
      // iteration boundaries; poll 1 cancels before any cycle lands.
      Workspace ws;
      util::CancelToken token;
      token.arm(util::Deadline::never());
      token.trip_after(static_cast<long long>(1 + seed % 5));
      SolveStats stats;
      bool cancelled = false;
      try {
        const Circulation full =
            solve_max_welfare(g, ws, kind, &stats, &token);
        // The solve finished inside the trip budget — it must already
        // be the reference answer.
        EXPECT_EQ(full, expected) << "seed " << seed;
      } catch (const util::SolveCancelled&) {
        cancelled = true;
        EXPECT_GE(stats.cancelled, 1) << "seed " << seed;
      }

      // Recovery: the same workspace, token disarmed, must reproduce
      // the fresh solve exactly — stale scratch from the unwound solve
      // must not leak into the result.
      token.arm(util::Deadline::never());
      SolveStats resolve_stats;
      const Circulation resolved =
          solve_max_welfare(g, ws, kind, &resolve_stats, &token);
      EXPECT_EQ(resolved, expected)
          << "seed " << seed << (cancelled ? " (after cancel)" : "");
      EXPECT_TRUE(is_optimal(g, resolved)) << "seed " << seed;
    }
  }
}

TEST(CancelTest, ArmedNeverFiringTokenIsBitIdenticalToNullToken) {
  for (const SolverKind kind : kKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    for (std::uint64_t seed = 1; seed <= kGames; ++seed) {
      util::Rng rng(seed);
      const Graph g = random_graph(12, 30, rng);

      Workspace plain_ws;
      SolveStats plain_stats;
      const Circulation plain =
          solve_max_welfare(g, plain_ws, kind, &plain_stats, nullptr);

      Workspace armed_ws;
      util::CancelToken token;
      token.arm(util::Deadline::never());
      SolveStats armed_stats;
      const Circulation armed =
          solve_max_welfare(g, armed_ws, kind, &armed_stats, &token);

      EXPECT_EQ(armed, plain) << "seed " << seed;
      // No drift in the work done either: same cancellation-free
      // iteration counts, nothing reported cancelled.
      EXPECT_EQ(armed_stats.cycles_cancelled, plain_stats.cycles_cancelled)
          << "seed " << seed;
      EXPECT_EQ(armed_stats.pivots, plain_stats.pivots) << "seed " << seed;
      EXPECT_EQ(armed_stats.zero_flow_certified,
                plain_stats.zero_flow_certified)
          << "seed " << seed;
      EXPECT_EQ(armed_stats.units_pushed, plain_stats.units_pushed)
          << "seed " << seed;
      EXPECT_EQ(armed_stats.fallbacks, plain_stats.fallbacks)
          << "seed " << seed;
      EXPECT_EQ(armed_stats.cancelled, 0) << "seed " << seed;
      EXPECT_FALSE(token.cancelled()) << "seed " << seed;
    }
  }
}

// Also on a quiescent graph (a gaining arc, no gaining cycle), which the
// network simplex's zero-flow certificate closes without a pivot: the
// first poll must come before the certificate.
TEST(CancelTest, AlreadyExpiredDeadlineCancelsOnFirstPoll) {
  util::Rng rng(3);
  Graph quiescent(3);
  quiescent.add_edge(0, 1, 5, 0.01);
  quiescent.add_edge(1, 2, 5, -0.02);
  quiescent.add_edge(2, 0, 5, 0.0);
  SolveStats certified;
  solve_max_welfare(quiescent, SolverKind::kNetworkSimplex, &certified);
  ASSERT_EQ(certified.zero_flow_certified, 1);
  for (const Graph& g : {random_graph(10, 24, rng), quiescent}) {
    for (const SolverKind kind : kKinds) {
      SCOPED_TRACE(static_cast<int>(kind));
      Workspace ws;
      util::CancelToken token;
      token.arm(util::Deadline::after(std::chrono::milliseconds(0)));
      SolveStats stats;
      EXPECT_THROW(solve_max_welfare(g, ws, kind, &stats, &token),
                   util::SolveCancelled);
      EXPECT_TRUE(token.cancelled());
      // And the workspace is still good for a clean solve afterwards.
      Workspace fresh;
      const Circulation expected = solve_max_welfare(g, fresh, kind);
      token.arm(util::Deadline::never());
      EXPECT_EQ(solve_max_welfare(g, ws, kind, &stats, &token), expected);
    }
  }
}

}  // namespace
}  // namespace musketeer::flow
