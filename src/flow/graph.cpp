#include "flow/graph.hpp"

#include <cmath>

namespace musketeer::flow {

ScaledGain scale_gain(double gain) {
  const double scaled = gain * kGainScale;
  MUSK_ASSERT_MSG(std::abs(scaled) < 9.2e18, "gain out of representable range");
  return static_cast<ScaledGain>(std::llround(scaled));
}

Graph::Graph(NodeId num_nodes)
    : num_nodes_(num_nodes),
      out_(static_cast<std::size_t>(num_nodes)),
      in_(static_cast<std::size_t>(num_nodes)) {
  MUSK_ASSERT(num_nodes >= 0);
}

EdgeId Graph::add_edge(NodeId from, NodeId to, Amount capacity, double gain) {
  MUSK_ASSERT(from >= 0 && from < num_nodes_);
  MUSK_ASSERT(to >= 0 && to < num_nodes_);
  MUSK_ASSERT_MSG(from != to, "self-loop channels are not allowed");
  MUSK_ASSERT(capacity >= 0);
  const EdgeId id = num_edges();
  edges_.push_back(Edge{from, to, capacity, gain});
  scaled_gains_.push_back(scale_gain(gain));
  out_[static_cast<std::size_t>(from)].push_back(id);
  in_[static_cast<std::size_t>(to)].push_back(id);
  return id;
}

std::span<const EdgeId> Graph::out_edges(NodeId v) const {
  MUSK_ASSERT(v >= 0 && v < num_nodes_);
  return out_[static_cast<std::size_t>(v)];
}

std::span<const EdgeId> Graph::in_edges(NodeId v) const {
  MUSK_ASSERT(v >= 0 && v < num_nodes_);
  return in_[static_cast<std::size_t>(v)];
}

void Graph::set_gain(EdgeId e, double gain) {
  MUSK_ASSERT(e >= 0 && e < num_edges());
  edges_[static_cast<std::size_t>(e)].gain = gain;
  scaled_gains_[static_cast<std::size_t>(e)] = scale_gain(gain);
}

void Graph::set_capacity(EdgeId e, Amount capacity) {
  MUSK_ASSERT(e >= 0 && e < num_edges());
  MUSK_ASSERT(capacity >= 0);
  edges_[static_cast<std::size_t>(e)].capacity = capacity;
}

Amount Graph::total_capacity() const {
  Amount total = 0;
  for (const Edge& e : edges_) total += e.capacity;
  return total;
}

void mask_node(Graph& g, NodeId v, SavedCapacities& saved) {
  saved.clear();
  // No self-loops, so out- and in-incidence are disjoint edge sets.
  for (const EdgeId e : g.out_edges(v)) {
    saved.emplace_back(e, g.edge(e).capacity);
    g.set_capacity(e, 0);
  }
  for (const EdgeId e : g.in_edges(v)) {
    saved.emplace_back(e, g.edge(e).capacity);
    g.set_capacity(e, 0);
  }
}

void restore_capacities(Graph& g, const SavedCapacities& saved) {
  for (const auto& [e, capacity] : saved) g.set_capacity(e, capacity);
}

}  // namespace musketeer::flow
