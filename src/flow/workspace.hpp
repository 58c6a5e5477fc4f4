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
};

/// Scratch for the network simplex basis (arcs, tree, potentials).
struct SimplexScratch {
  struct Arc {
    NodeId from = 0;
    NodeId to = 0;
    Amount capacity = 0;
    std::int64_t cost = 0;  // minimization cost = -scaled gain
  };
  /// One pivot-cycle traversal step.
  struct Step {
    std::size_t arc = 0;
    bool forward = true;  // cycle traverses the arc in its own direction
  };
  std::vector<Arc> arcs;
  std::vector<Amount> flow;
  std::vector<signed char> state;
  std::vector<int> parent_arc;
  std::vector<int> depth;
  /// Node potentials of the current basis; after an optimal solve, the
  /// LP duals that flow::verify_dual checks.
  std::vector<std::int64_t> pi;
  /// Tree arcs incident to each node but the root.
  std::vector<std::vector<std::size_t>> adjacency;
  /// The subtree a pivot re-hangs, in visit order.
  std::vector<NodeId> subtree;
  std::vector<Step> path;
  std::vector<Step> from_target;
  std::vector<Step> from_source;
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
