#include "flow/bellman_ford.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace musketeer::flow {

namespace {

// The predecessor cycle through `inside`, as arc indices in traversal
// order; asserts it strictly negative (exact integers, so a hard
// invariant).
std::vector<int> cycle_through(NodeId inside,
                               const std::vector<int>& parent_arc,
                               std::span<const ResidualArc> arcs) {
  std::vector<int> cycle;
  NodeId v = inside;
  do {
    const int pa = parent_arc[static_cast<std::size_t>(v)];
    MUSK_ASSERT(pa >= 0);
    cycle.push_back(pa);
    v = arcs[static_cast<std::size_t>(pa)].from;
  } while (v != inside);
  std::reverse(cycle.begin(), cycle.end());

  std::int64_t total = 0;
  for (int a : cycle) total += arcs[static_cast<std::size_t>(a)].cost;
  MUSK_ASSERT_MSG(total < 0, "extracted cycle must have negative cost");
  return cycle;
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
  scratch.passes = 0;
  if (num_nodes == 0 || arcs.empty()) return std::nullopt;
  const std::size_t n = static_cast<std::size_t>(num_nodes);

  // Distances start at zero everywhere, which is equivalent to a virtual
  // source connected to every node with cost 0 — any negative cycle is
  // then reachable by construction.
  std::vector<std::int64_t>& dist = scratch.dist;
  std::vector<int>& parent_arc = scratch.parent_arc;
  std::vector<int>& stamp = scratch.stamp;
  dist.assign(n, 0);
  parent_arc.assign(n, -1);
  stamp.assign(n, -1);

  for (NodeId pass = 0; pass < num_nodes; ++pass) {
    scratch.passes = pass + 1;
    NodeId updated = -1;
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
    // Walk the predecessor arcs up from the last node this pass updated,
    // stamping each node with the pass: reaching a node stamped on this
    // walk closes a cycle of the predecessor graph, and every such cycle
    // is negative. O(depth) per pass, so a gaining graph stops within a
    // few passes instead of running all n.
    for (NodeId v = updated;;) {
      const auto vi = static_cast<std::size_t>(v);
      if (parent_arc[vi] < 0) break;
      if (stamp[vi] == pass) return cycle_through(v, parent_arc, arcs);
      stamp[vi] = pass;
      v = arcs[static_cast<std::size_t>(parent_arc[vi])].from;
    }
  }

  // Unreachable: in the n-th pass the walk above closes a cycle. Were
  // the updated node's chain instead a path from a parentless node (at
  // distance 0), the node's distance would be at least that path's
  // cost; the path has at most n-1 arcs, so the n-1 passes before had
  // already lowered the node that far, and this pass could not update it.
  util::assert_fail("find_negative_cycle", __FILE__, __LINE__,
                    "a pass-n update must close a predecessor cycle");
}

}  // namespace musketeer::flow
