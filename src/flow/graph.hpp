// Directed capacitated graph with per-edge gains (bids).
//
// This is the substrate the Musketeer mechanisms optimize over: each
// directed edge is one side of a payment channel offered to the rebalancing
// mechanism, `capacity` is the liquidity the owner pre-locks, and `gain` is
// the owner's bid per unit of flow (positive for buyers, non-positive for
// sellers). Welfare maximization over circulations on this graph is a
// min-cost circulation problem with cost = -gain.
//
// Gains are doubles at the API surface (the paper's bids are real fee
// rates) but are mirrored internally as integers scaled by kGainScale so
// that all solver optimality arguments are exact — no epsilon tuning in the
// cycle-cancelling loop, and a negative-residual-cycle-free certificate is
// an exact proof of optimality.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace musketeer::flow {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

/// Integer flow unit (think millisatoshi).
using Amount = std::int64_t;

/// Exact integer representation of a per-unit gain: gain * kGainScale,
/// rounded to nearest. One unit = 1e-9 of a coin per coin of flow.
using ScaledGain = std::int64_t;
inline constexpr double kGainScale = 1e9;

/// Convert a real-valued gain (bid) to its exact internal representation.
ScaledGain scale_gain(double gain);

/// A directed edge: `capacity` units may flow from `from` to `to`, each
/// unit generating `gain` welfare for the edge's owner.
struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  Amount capacity = 0;
  double gain = 0.0;
};

/// Immutable-topology directed multigraph (parallel edges and antiparallel
/// edge pairs are allowed; self-loops are not, as a channel connects two
/// distinct users).
class Graph {
 public:
  explicit Graph(NodeId num_nodes);

  /// Adds an edge and returns its id. Capacity must be non-negative.
  EdgeId add_edge(NodeId from, NodeId to, Amount capacity, double gain);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  const Edge& edge(EdgeId e) const {
    MUSK_ASSERT(e >= 0 && e < num_edges());
    return edges_[static_cast<std::size_t>(e)];
  }

  ScaledGain scaled_gain(EdgeId e) const {
    MUSK_ASSERT(e >= 0 && e < num_edges());
    return scaled_gains_[static_cast<std::size_t>(e)];
  }

  /// Edge ids leaving / entering `v`.
  std::span<const EdgeId> out_edges(NodeId v) const;
  std::span<const EdgeId> in_edges(NodeId v) const;

  /// Replaces the gain of an edge (used by mechanisms that re-solve under
  /// modified bids, e.g. VCG's per-player exclusion).
  void set_gain(EdgeId e, double gain);

  /// Replaces the capacity of an edge without touching the adjacency
  /// structure (SolveContext rebinding and capacity masks). Must be
  /// non-negative.
  void set_capacity(EdgeId e, Amount capacity);

  /// Sum of all edge capacities (an upper bound on any circulation's size).
  Amount total_capacity() const;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
  std::vector<ScaledGain> scaled_gains_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

/// Capacities a mask_node call zeroed: (edge id, previous capacity).
using SavedCapacities = std::vector<std::pair<EdgeId, Amount>>;

/// Zeroes the capacity of every edge incident to `v` in O(deg v),
/// recording the previous capacities in `saved` (cleared first). On a
/// game graph the masked graph equals Game::build_graph_without(bids, v)
/// — the paper's G_{-v} — so VCG exclusions need no graph rebuild.
void mask_node(Graph& g, NodeId v, SavedCapacities& saved);

/// Restores the capacities a mask_node call saved.
void restore_capacities(Graph& g, const SavedCapacities& saved);

}  // namespace musketeer::flow
