// Welfare-maximizing circulation solvers.
//
// The Musketeer mechanisms all begin with
//     f := argmax_f SW(b, f)  over feasible circulations f,
// which is the min-cost circulation problem with cost = -bid. Two
// solvers, both starting from the zero circulation (always feasible):
//
//  * kNetworkSimplex, the default, pivots a spanning-tree basis
//    (flow/network_simplex.hpp); its potentials are the LP duals, which
//    verify_dual checks on every solve. A quiescent epoch costs it one
//    Bellman–Ford run, which certifies the zero flow optimal.
//  * kBellmanFord cancels any negative residual cycle found until none
//    remain, which is exactly the optimality condition (pseudo-polynomial
//    worst case, guaranteed to terminate because costs are exact integers
//    and every cancellation strictly improves welfare). It is the
//    reference kind and the network simplex's pivot-cap fallback.
//
// Both produce *exactly* optimal circulations; tests cross-validate them
// against each other, against the LP simplex encoder, and against the
// negative-residual-cycle optimality certificate (is_optimal).
//
// solve_max_welfare has two entry points: the original allocating form
// and a Workspace-taking form that pools all scratch (residual arc
// lists, distance tables, simplex bases) in a caller-owned Workspace. The
// two are bit-identical — the workspace form merely reuses buffers. Every
// mechanism solves with the network simplex, through
// flow::SolveContext::solve or, for M2's exclusions, the workspace form.
#pragma once

#include <cstdint>
#include <span>

#include "flow/circulation.hpp"
#include "flow/graph.hpp"
#include "flow/workspace.hpp"
#include "util/deadline.hpp"

namespace musketeer::flow {

// The values are explicit and keep the numbers the kinds had when the
// enum also held the min-mean (1) and capacity-scaling (2) solvers, so a
// kind's number (test diagnostics, parameterized test names) is stable.
enum class SolverKind {
  /// Negative-cycle cancelling; also the optimality certificate and the
  /// network simplex's pivot-cap fallback.
  kBellmanFord = 0,
  /// Network simplex (see flow/network_simplex.hpp): the default. Each
  /// pivot costs an O(m) pricing scan plus the re-hung subtree, instead
  /// of an O(n*m) cancellation.
  kNetworkSimplex = 3,
};

struct SolveStats {
  /// Negative cycles the Bellman–Ford canceller cancelled (also on the
  /// network simplex's fallback path).
  int cycles_cancelled = 0;
  Amount units_pushed = 0;
  /// Network simplex pivots, bound flips and degenerate pivots included.
  int pivots = 0;
  /// Network simplex solves the zero-flow certificate closed without a
  /// pivot: the graph had no positive-welfare cycle.
  int zero_flow_certified = 0;
  /// Times the network simplex hit its pivot cap and fell back to the
  /// Bellman–Ford canceller (0 for kBellmanFord).
  int fallbacks = 0;
  /// Solves a cancel token interrupted before optimality. A cancelled
  /// solve throws util::SolveCancelled after bumping this, so the count
  /// is only observable on stats objects that outlive the throw (e.g.
  /// SolveContext::stats()).
  int cancelled = 0;
};

/// Computes a feasible circulation maximizing sum(gain(e) * f(e)).
Circulation solve_max_welfare(const Graph& g,
                              SolverKind kind = SolverKind::kNetworkSimplex,
                              SolveStats* stats = nullptr);

/// Workspace-reusing variant (bit-identical result): all solver scratch
/// lives in `ws` and is reused across calls. After the first solve on a
/// topology, subsequent same-size solves allocate nothing on the solve
/// path beyond the returned circulation itself.
///
/// When `cancel` is non-null, every solver checks it at its iteration
/// boundaries (MUSK_CANCEL_POINT) and throws util::SolveCancelled once
/// it fires — the workspace stays structurally valid (only its scratch
/// contents are stale) and the next call reuses it normally.
Circulation solve_max_welfare(const Graph& g, Workspace& ws,
                              SolverKind kind = SolverKind::kNetworkSimplex,
                              SolveStats* stats = nullptr,
                              util::CancelToken* cancel = nullptr);

/// True iff `f` is a welfare-optimal feasible circulation on `g`
/// (certified by the absence of negative residual cycles — exact).
bool is_optimal(const Graph& g, const Circulation& f);

/// True iff no residual arc of `f` has negative reduced cost
/// c(u, v) - pi(u) + pi(v) under the node potentials `pi` (at least
/// g.num_nodes() entries), in exact int64. A residual cycle's cost is the
/// sum of its arcs' reduced costs, so a true result proves `f` optimal
/// however `pi` was computed; with optimal duals it agrees with
/// is_optimal on every feasible `f`. O(m).
bool verify_dual(const Graph& g, const Circulation& f,
                 std::span<const std::int64_t> pi);

}  // namespace musketeer::flow
