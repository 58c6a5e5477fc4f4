#include "gen/topology.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace musketeer::gen {

namespace {

ChannelEndpoints ordered(NodeId a, NodeId b) {
  return a < b ? ChannelEndpoints{a, b} : ChannelEndpoints{b, a};
}

}  // namespace

Topology erdos_renyi(NodeId n, double p, util::Rng& rng) {
  MUSK_ASSERT(n >= 0);
  MUSK_ASSERT(p >= 0.0 && p <= 1.0);
  Topology channels;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) channels.emplace_back(u, v);
    }
  }
  return channels;
}

Topology barabasi_albert(NodeId n, int attach, util::Rng& rng) {
  MUSK_ASSERT(attach >= 1);
  MUSK_ASSERT(n > attach);
  Topology channels;
  // Degree-proportional sampling via the repeated-endpoints trick: every
  // channel contributes both endpoints to the urn.
  std::vector<NodeId> urn;
  // Seed clique over the first attach+1 nodes.
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = u + 1; v <= attach; ++v) {
      channels.emplace_back(u, v);
      urn.push_back(u);
      urn.push_back(v);
    }
  }
  for (NodeId newcomer = attach + 1; newcomer < n; ++newcomer) {
    std::vector<NodeId> targets;
    while (static_cast<int>(targets.size()) < attach) {
      const NodeId pick = urn[rng.uniform(urn.size())];
      if (pick == newcomer ||
          std::find(targets.begin(), targets.end(), pick) != targets.end()) {
        continue;
      }
      targets.push_back(pick);
    }
    for (NodeId t : targets) {
      channels.push_back(ordered(newcomer, t));
      urn.push_back(newcomer);
      urn.push_back(t);
    }
  }
  return channels;
}

Topology watts_strogatz(NodeId n, int k, double beta, util::Rng& rng) {
  MUSK_ASSERT(k >= 1 && 2 * k < n);
  MUSK_ASSERT(beta >= 0.0 && beta <= 1.0);
  Topology channels;
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= k; ++j) {
      NodeId v = static_cast<NodeId>((u + j) % n);
      if (rng.bernoulli(beta)) {
        // Rewire to a uniform non-neighbour (best effort: retry a few
        // times, keep the lattice edge if unlucky).
        for (int attempt = 0; attempt < 8; ++attempt) {
          const NodeId cand =
              static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
          if (cand != u && cand != v) {
            v = cand;
            break;
          }
        }
      }
      channels.push_back(ordered(u, v));
    }
  }
  return dedupe(std::move(channels));
}

Topology ring(NodeId n) {
  MUSK_ASSERT(n >= 3);
  Topology channels;
  for (NodeId u = 0; u < n; ++u) {
    channels.push_back(ordered(u, static_cast<NodeId>((u + 1) % n)));
  }
  return channels;
}

Topology grid(NodeId rows, NodeId cols) {
  MUSK_ASSERT(rows >= 1 && cols >= 1);
  Topology channels;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) channels.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) channels.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return channels;
}

Topology dedupe(Topology topology) {
  for (auto& [a, b] : topology) {
    if (a > b) std::swap(a, b);
  }
  std::sort(topology.begin(), topology.end());
  topology.erase(std::unique(topology.begin(), topology.end()),
                 topology.end());
  topology.erase(std::remove_if(topology.begin(), topology.end(),
                                [](const ChannelEndpoints& c) {
                                  return c.first == c.second;
                                }),
                 topology.end());
  return topology;
}

}  // namespace musketeer::gen
