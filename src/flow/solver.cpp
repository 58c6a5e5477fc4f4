#include "flow/solver.hpp"

#include "flow/bellman_ford.hpp"
#include "flow/network_simplex.hpp"
#include "flow/residual.hpp"

namespace musketeer::flow {

namespace {

Circulation solve_bellman_ford(const Graph& g, Workspace& ws,
                               SolveStats* stats,
                               util::CancelToken* cancel) {
  Circulation f = zero_circulation(g);
  for (;;) {
    MUSK_CANCEL_POINT(cancel);
    build_residual(g, f, ws.arcs);
    // Single-cycle cancelling measured faster than harvesting every
    // disjoint cycle per pass: on PCN-like graphs the predecessor forest
    // rarely holds more than one disjoint cycle (EXPERIMENTS.md, E7).
    const auto cycle = find_negative_cycle(g.num_nodes(), ws.arcs, ws.bf);
    if (!cycle) break;
    const Amount amount = bottleneck(ws.arcs, *cycle);
    push_along(ws.arcs, *cycle, amount, f);
    if (stats != nullptr) {
      ++stats->cycles_cancelled;
      stats->units_pushed += amount;
    }
  }
  return f;
}

}  // namespace

Circulation solve_max_welfare(const Graph& g, SolverKind kind,
                              SolveStats* stats) {
  // A local workspace keeps the legacy entry point's allocation profile
  // (every call allocates its own scratch), so workspace-reuse benchmarks
  // compare against the true one-shot cost.
  Workspace ws;
  return solve_max_welfare(g, ws, kind, stats);
}

Circulation solve_max_welfare(const Graph& g, Workspace& ws, SolverKind kind,
                              SolveStats* stats, util::CancelToken* cancel) {
  Circulation f;
  try {
    switch (kind) {
      case SolverKind::kBellmanFord:
        f = solve_bellman_ford(g, ws, stats, cancel);
        break;
      case SolverKind::kNetworkSimplex:
        f = solve_network_simplex(g, ws, stats, cancel);
        break;
    }
  } catch (const util::SolveCancelled&) {
    // The partial iterate dies with the unwind; callers treat the
    // workspace as stale scratch. Count the interruption where stats
    // outlive the throw (the SolveContext sums these per slot).
    if (stats != nullptr) ++stats->cancelled;
    throw;
  }
  MUSK_ASSERT_MSG(is_feasible(g, f), "solver produced infeasible circulation");
#if defined(MUSKETEER_AUDIT)
  // Audit hook: re-certify optimality via the (exact, integer-cost)
  // negative-residual-cycle test after every solve, whichever backend ran.
  // The certificate runs through the workspace too, so audited warm
  // contexts stay allocation-free.
  build_residual(g, f, ws.arcs);
  MUSK_ASSERT_MSG(
      !find_negative_cycle(g.num_nodes(), ws.arcs, ws.bf).has_value(),
      "audit: solver output failed the negative-residual-cycle "
      "optimality certificate");
#endif
  return f;
}

bool is_optimal(const Graph& g, const Circulation& f) {
  if (!is_feasible(g, f)) return false;
  const std::vector<ResidualArc> arcs = build_residual(g, f);
  return !find_negative_cycle(g.num_nodes(), arcs).has_value();
}

bool verify_dual(const Graph& g, const Circulation& f,
                 std::span<const std::int64_t> pi) {
  MUSK_ASSERT(f.size() == static_cast<std::size_t>(g.num_edges()));
  MUSK_ASSERT(pi.size() >= static_cast<std::size_t>(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const Amount fe = f[static_cast<std::size_t>(e)];
    // The forward residual arc costs -gain, the backward one +gain, so
    // their reduced costs are rc and -rc.
    const std::int64_t rc = -g.scaled_gain(e) -
                            pi[static_cast<std::size_t>(edge.from)] +
                            pi[static_cast<std::size_t>(edge.to)];
    if (fe < edge.capacity && rc < 0) return false;
    if (fe > 0 && rc > 0) return false;
  }
  return true;
}

}  // namespace musketeer::flow
