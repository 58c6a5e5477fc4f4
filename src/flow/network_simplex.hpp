// Network simplex for the welfare-maximizing circulation.
//
// The production algorithm for min-cost flows, and the default solver:
// maintain a spanning-tree basis (real arcs plus artificial arcs to a
// virtual root), pivot negative-reduced-cost arcs into the tree along
// the unique tree cycle, and stop when no arc prices in. The pivot
// follows LEMON's design (Király & Kovács, "Efficient implementations of
// minimum-cost flow algorithms", 2012):
//
//  * block-search pricing: the most violating arc of the first block of
//    ~sqrt(m) arcs that holds one, resuming where the last search
//    stopped, so a pivot scans O(sqrt m) arcs, not Dantzig's O(m);
//  * a threaded spanning-tree index (parent, tree arc, preorder thread,
//    subtree size, last successor), so a pivot finds the cycle by
//    climbing parent links, re-threads only the stem it reverses, and
//    shifts the moved subtree's potentials by one constant, all on flat
//    arrays;
//  * the strongly feasible leaving rule (the last blocking arc from the
//    cycle's apex), which cannot cycle (Cunningham 1976).
//
// Before building a basis, one Bellman–Ford run on the zero circulation
// returns the zero flow when no positive-welfare cycle exists, which is
// every settled epoch.
//
// Exactness: costs are the same scaled integers as the rest of the flow
// stack, so the result is exactly optimal, and every solve asserts it in
// O(m): flow::verify_dual checks the final tree potentials against the
// circulation (audit builds also check the basis after every pivot and
// run the O(n·m) residual-cycle certificate). A hard pivot cap falls
// back to the proven Bellman–Ford solver, so correctness never rests on
// pivoting alone; fallbacks are counted in SolveStats::fallbacks so
// callers can see when the cap fired.
#pragma once

#include "flow/circulation.hpp"
#include "flow/graph.hpp"
#include "flow/solver.hpp"
#include "flow/workspace.hpp"

namespace musketeer::flow {

/// Solves max sum(gain_e * f_e) over feasible circulations via network
/// simplex. Stats (when given) count pivots, zero-flow certificates and
/// Bellman–Ford passes.
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

/// True iff `ws` holds a valid strongly feasible basis: the thread is one
/// cycle through all n+1 nodes from the root and rev_thread its inverse;
/// each node's succ_num and last_succ match its thread range, which
/// nests inside its parent's; each tree arc is in tree state, agrees with
/// parent and pred_dir, has zero reduced cost under pi, and can push one
/// unit from child to parent. O(n); writes only ws.check_pos and
/// ws.check_size, which allocate once per workspace. Audit builds check
/// it after every pivot.
bool simplex_basis_ok(SimplexScratch& ws);

}  // namespace musketeer::flow
