// Network simplex for the welfare-maximizing circulation.
//
// The production algorithm for min-cost flows, and the default solver:
// maintain a spanning-tree basis (real arcs plus big-M artificial arcs
// to a virtual root), pivot negative-reduced-cost arcs into the tree
// along the unique tree cycle, and stop when no arc prices in. Each
// pivot prices every arc (Dantzig, O(m)) and then re-hangs only the
// subtree the leaving arc cuts off, recomputing parents, depths and
// potentials there; the Bellman–Ford canceller pays O(n·m) per
// cancellation. Before building a basis, one Bellman–Ford run on the
// zero circulation returns the zero flow when no positive-welfare cycle
// exists, which is every settled epoch.
//
// Exactness: costs are the same scaled integers as the rest of the flow
// stack, so the result is exactly optimal, and every solve asserts it in
// O(m): flow::verify_dual checks the final tree potentials against the
// circulation (audit builds also run the O(n·m) residual-cycle
// certificate). Anti-cycling: Dantzig pivoting switches to Bland's rule
// after a threshold, and a hard pivot cap falls back to the proven
// Bellman–Ford solver (correctness is never at the mercy of degenerate
// pivoting). Fallbacks are counted in SolveStats::fallbacks so callers
// can see when the cap fired.
#pragma once

#include "flow/circulation.hpp"
#include "flow/graph.hpp"
#include "flow/solver.hpp"
#include "flow/workspace.hpp"

namespace musketeer::flow {

/// Solves max sum(gain_e * f_e) over feasible circulations via network
/// simplex. Stats (when given) count pivots and zero-flow certificates.
/// The basis, tree and potential buffers live in `ws` and are reused
/// across solves. The full Workspace is taken (not just SimplexScratch)
/// so the zero-flow certificate and the pivot-cap fallback can reuse the
/// Bellman–Ford scratch too. `cancel` is checked before the certificate
/// and once per pivot (and forwarded into the fallback canceller).
///
/// This is the one network simplex entry point. Callers without a
/// workspace go through solve_max_welfare(g, SolverKind::kNetworkSimplex),
/// which allocates one and also asserts the result feasible.
Circulation solve_network_simplex(const Graph& g, Workspace& ws,
                                  SolveStats* stats = nullptr,
                                  util::CancelToken* cancel = nullptr);

}  // namespace musketeer::flow
