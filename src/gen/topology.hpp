// Synthetic PCN topology generators.
//
// Lightning-like networks are scale-free with a small dense core
// (Barabási–Albert); the other families stress different regimes:
// Erdős–Rényi (homogeneous sparse), Watts–Strogatz (high clustering, the
// regime where short rebalancing cycles abound) and rings/grids
// (worst-case sparse cycles).
// All generators return undirected channel endpoint pairs; the game
// generator decides directions, capacities and stakes.
#pragma once

#include <utility>
#include <vector>

#include "flow/graph.hpp"
#include "util/rng.hpp"

namespace musketeer::gen {

using flow::NodeId;

/// An undirected channel between two distinct users.
using ChannelEndpoints = std::pair<NodeId, NodeId>;
using Topology = std::vector<ChannelEndpoints>;

/// G(n, p): each unordered pair is a channel with probability p.
Topology erdos_renyi(NodeId n, double p, util::Rng& rng);

/// Preferential attachment: nodes arrive one by one, each attaching
/// `attach` channels to existing nodes with probability proportional to
/// degree. Produces the heavy-tailed degree profile of Lightning.
Topology barabasi_albert(NodeId n, int attach, util::Rng& rng);

/// Ring lattice with `k` nearest neighbours per side, each edge rewired
/// with probability `beta`.
Topology watts_strogatz(NodeId n, int k, double beta, util::Rng& rng);

/// Simple cycle over n nodes.
Topology ring(NodeId n);

/// rows x cols grid, channels between lattice neighbours.
Topology grid(NodeId rows, NodeId cols);

/// Deduplicates parallel channels and drops self-loops (generator
/// postprocessing; idempotent).
Topology dedupe(Topology topology);

}  // namespace musketeer::gen
