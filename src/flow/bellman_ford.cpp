#include "flow/bellman_ford.hpp"

#include <algorithm>

namespace musketeer::flow {

namespace {

// Walks predecessor arcs from `start` exactly `steps` times; returns the
// node reached. Used to land on a node that is certainly inside a cycle of
// the predecessor forest.
NodeId walk_predecessors(NodeId start, int steps,
                         const std::vector<int>& parent_arc,
                         std::span<const ResidualArc> arcs) {
  NodeId v = start;
  for (int i = 0; i < steps; ++i) {
    const int pa = parent_arc[static_cast<std::size_t>(v)];
    MUSK_ASSERT(pa >= 0);
    v = arcs[static_cast<std::size_t>(pa)].from;
  }
  return v;
}

}  // namespace

std::optional<std::vector<int>> find_negative_cycle(
    NodeId num_nodes, std::span<const ResidualArc> arcs) {
  BellmanFordScratch scratch;
  return find_negative_cycle(num_nodes, arcs, scratch);
}

std::optional<std::vector<int>> find_negative_cycle(
    NodeId num_nodes, std::span<const ResidualArc> arcs,
    BellmanFordScratch& scratch) {
  if (num_nodes == 0 || arcs.empty()) return std::nullopt;
  const std::size_t n = static_cast<std::size_t>(num_nodes);

  // Distances start at zero everywhere, which is equivalent to a virtual
  // source connected to every node with cost 0 — any negative cycle is
  // then reachable by construction.
  std::vector<std::int64_t>& dist = scratch.dist;
  std::vector<int>& parent_arc = scratch.parent_arc;
  dist.assign(n, 0);
  parent_arc.assign(n, -1);

  NodeId updated = -1;
  for (NodeId pass = 0; pass < num_nodes; ++pass) {
    updated = -1;
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      const ResidualArc& arc = arcs[a];
      MUSK_ASSERT(arc.residual > 0);
      const std::int64_t cand = dist[static_cast<std::size_t>(arc.from)] + arc.cost;
      if (cand < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = cand;
        parent_arc[static_cast<std::size_t>(arc.to)] = static_cast<int>(a);
        updated = arc.to;
      }
    }
    if (updated < 0) return std::nullopt;  // converged: no negative cycle
  }

  // A node updated in the n-th pass is reachable from a negative cycle;
  // walking n predecessor steps lands strictly inside one.
  const NodeId inside = walk_predecessors(updated, num_nodes, parent_arc, arcs);

  std::vector<int> cycle;
  NodeId v = inside;
  do {
    const int pa = parent_arc[static_cast<std::size_t>(v)];
    MUSK_ASSERT(pa >= 0);
    cycle.push_back(pa);
    v = arcs[static_cast<std::size_t>(pa)].from;
  } while (v != inside);
  std::reverse(cycle.begin(), cycle.end());

  // The predecessor walk yields the cycle; verify it is strictly negative
  // (exact integer arithmetic, so this is a hard invariant).
  std::int64_t total = 0;
  for (int a : cycle) total += arcs[static_cast<std::size_t>(a)].cost;
  MUSK_ASSERT_MSG(total < 0, "extracted cycle must have negative cost");
  return cycle;
}

}  // namespace musketeer::flow
