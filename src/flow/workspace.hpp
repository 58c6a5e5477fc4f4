// Reusable solver workspaces.
//
// Every solver in src/flow historically allocated its scratch state
// (residual arc lists, Bellman–Ford distance/predecessor tables, simplex
// bases, decomposition cursors) from the heap on every
// call — fine for one-shot experiments, hostile to the epoch service and
// to VCG's n+1 re-solves on an unchanged topology. A Workspace bundles
// all of that scratch into one value that callers keep alive across
// solves: after the first solve on a topology, subsequent solves on
// same-or-smaller instances perform zero heap allocations on the solve
// path.
//
// Ownership rule: a Workspace (like the SolveContext that embeds one) is
// single-threaded state. One workspace per thread; never share across
// concurrent solves. See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/residual.hpp"

namespace musketeer::flow {

/// Scratch for find_negative_cycle.
struct BellmanFordScratch {
  std::vector<std::int64_t> dist;
  std::vector<int> parent_arc;
  /// Per node, the last pass whose predecessor walk visited it.
  std::vector<int> stamp;
  /// Relaxation passes the last run made over the arcs.
  int passes = 0;
};

/// Scratch for the network simplex: arcs, basis, potentials, and the
/// threaded index of the spanning tree (Király & Kovács, "Efficient
/// implementations of minimum-cost flow algorithms", 2012, as in LEMON).
/// Node n is the virtual root. The tree arrays hold one entry per node,
/// the root included.
struct SimplexScratch {
  struct Arc {
    NodeId from = 0;
    NodeId to = 0;
    Amount capacity = 0;
    std::int64_t cost = 0;  // minimization cost = -scaled gain
  };
  std::vector<Arc> arcs;
  std::vector<Amount> flow;
  /// Pricing sign: +1 at the lower bound, -1 at the upper bound, 0 in
  /// the tree. An arc violates optimality iff state * reduced cost < 0.
  std::vector<signed char> state;
  /// Node potentials of the current basis; after an optimal solve, the
  /// LP duals that flow::verify_dual checks.
  std::vector<std::int64_t> pi;
  /// Tree parent (-1 at the root), and the tree arc to it (`pred`, -1 at
  /// the root): +1 in `pred_dir` when that arc points from the node up
  /// to its parent, -1 when it points down.
  std::vector<NodeId> parent;
  std::vector<int> pred;
  std::vector<signed char> pred_dir;
  /// The tree in preorder, as one cycle through every node from the
  /// root, and its inverse.
  std::vector<NodeId> thread;
  std::vector<NodeId> rev_thread;
  /// Subtree size, and the subtree's last node in thread order: a
  /// node's subtree is the thread range from it to its last_succ.
  std::vector<int> succ_num;
  std::vector<NodeId> last_succ;
  /// Nodes whose successor a pivot's re-thread changed (reserved to the
  /// node count, so pivots allocate nothing).
  std::vector<NodeId> dirty_revs;
  /// Buffers for flow::simplex_basis_ok (each node's thread position,
  /// and subtree sizes), so the basis check audit builds run after every
  /// pivot allocates nothing either.
  std::vector<std::size_t> check_pos;
  std::vector<int> check_size;
};

/// Scratch for the sign-consistent cycle decomposition peel.
struct DecomposeScratch {
  Circulation remaining;
  std::vector<std::size_t> cursor;
  std::vector<int> on_path;
  std::vector<NodeId> path_nodes;
  std::vector<EdgeId> path_edges;
};

/// All solver scratch, pooled. Value-semantic: copying copies capacity
/// hints, moving is cheap, destruction frees everything.
struct Workspace {
  /// Residual network of the current iterate (rebuilt in place).
  std::vector<ResidualArc> arcs;
  BellmanFordScratch bf;
  SimplexScratch ns;
  DecomposeScratch dec;
};

}  // namespace musketeer::flow
