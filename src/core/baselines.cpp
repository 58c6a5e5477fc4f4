#include "core/baselines.hpp"

#include <deque>

#include "util/assert.hpp"

namespace musketeer::core {

namespace {

// Hide & Seek's rebalancing subgraph: depleted edges keep their capacity
// with unit weight, everything else is zeroed out.
struct HideSeekSource {
  const Game& game;
  const BidVector& bids;

  NodeId num_nodes() const { return game.num_players(); }
  EdgeId num_edges() const { return game.num_edges(); }
  NodeId edge_from(EdgeId e) const { return game.edge(e).from; }
  NodeId edge_to(EdgeId e) const { return game.edge(e).to; }
  Amount capacity(EdgeId e) const {
    const bool depleted = bids.head[static_cast<std::size_t>(e)] > 0.0;
    return depleted ? game.edge(e).capacity : 0;
  }
  double gain(EdgeId) const { return 1.0; }
};

}  // namespace

Outcome NoRebalancing::run_impl(flow::SolveContext&, const Game& game,
                                const BidVector& bids) const {
  MUSK_ASSERT(bids.size() == static_cast<std::size_t>(game.num_edges()));
  Outcome outcome;
  outcome.circulation.assign(static_cast<std::size_t>(game.num_edges()), 0);
  return outcome;
}

Outcome HideSeek::run_impl(flow::SolveContext& ctx, const Game& game,
                           const BidVector& bids) const {
  MUSK_ASSERT(bids.size() == static_cast<std::size_t>(game.num_edges()));
  // Rebalancing subgraph: depleted edges only (positive head bid). All
  // depleted edges weigh equally — Hide & Seek maximizes rebalanced
  // liquidity, not bid-weighted welfare.
  ctx.bind_from(HideSeekSource{game, bids});
  Outcome outcome;
  outcome.circulation = ctx.solve();
  for (flow::CycleFlow& cycle : ctx.decompose(outcome.circulation)) {
    PricedCycle pc;  // fee-free execution
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

LocalRebalancing::LocalRebalancing(int max_path_length, double fee_rate)
    : max_path_length_(max_path_length), fee_rate_(fee_rate) {
  MUSK_ASSERT(max_path_length >= 1);
  MUSK_ASSERT(fee_rate >= 0.0);
}

Outcome LocalRebalancing::run_impl(flow::SolveContext&, const Game& game,
                                   const BidVector& bids) const {
  MUSK_ASSERT(bids.size() == static_cast<std::size_t>(game.num_edges()));
  std::vector<Amount> remaining(static_cast<std::size_t>(game.num_edges()));
  for (EdgeId e = 0; e < game.num_edges(); ++e) {
    remaining[static_cast<std::size_t>(e)] = game.edge(e).capacity;
  }
  // Adjacency over game edges for the BFS return-path search.
  std::vector<std::vector<EdgeId>> out(
      static_cast<std::size_t>(game.num_players()));
  for (EdgeId e = 0; e < game.num_edges(); ++e) {
    out[static_cast<std::size_t>(game.edge(e).from)].push_back(e);
  }

  Outcome outcome;
  outcome.circulation.assign(static_cast<std::size_t>(game.num_edges()), 0);

  // Greedy sequential passes: each buyer repeatedly rebalances its
  // depleted edge along the cheapest (fewest-hop) return path it can
  // afford, until no buyer can make progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (EdgeId e = 0; e < game.num_edges(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const double buyer_bid = bids.head[ei];
      if (buyer_bid <= 0.0 || remaining[ei] == 0) continue;
      const GameEdge& depleted = game.edge(e);

      // BFS from the depleted edge's head back to its tail, bounded depth.
      std::vector<EdgeId> parent_edge(
          static_cast<std::size_t>(game.num_players()), -1);
      std::vector<int> depth(static_cast<std::size_t>(game.num_players()), -1);
      std::deque<NodeId> queue;
      depth[static_cast<std::size_t>(depleted.to)] = 0;
      queue.push_back(depleted.to);
      while (!queue.empty()) {
        const NodeId v = queue.front();
        queue.pop_front();
        if (v == depleted.from) break;
        if (depth[static_cast<std::size_t>(v)] >= max_path_length_) continue;
        for (EdgeId cand : out[static_cast<std::size_t>(v)]) {
          if (cand == e || remaining[static_cast<std::size_t>(cand)] == 0) {
            continue;
          }
          const NodeId next = game.edge(cand).to;
          if (depth[static_cast<std::size_t>(next)] >= 0) continue;
          depth[static_cast<std::size_t>(next)] =
              depth[static_cast<std::size_t>(v)] + 1;
          parent_edge[static_cast<std::size_t>(next)] = cand;
          queue.push_back(next);
        }
      }
      if (depth[static_cast<std::size_t>(depleted.from)] < 0) continue;

      // Reconstruct the return path and check the buyer can afford it.
      std::vector<EdgeId> path;
      for (NodeId v = depleted.from; v != depleted.to;) {
        const EdgeId pe = parent_edge[static_cast<std::size_t>(v)];
        MUSK_ASSERT(pe >= 0);
        path.push_back(pe);
        v = game.edge(pe).from;
      }
      const double total_fee_rate =
          fee_rate_ * static_cast<double>(path.size());
      if (total_fee_rate > buyer_bid) continue;

      Amount amount = remaining[ei];
      for (EdgeId pe : path) {
        amount = std::min(amount, remaining[static_cast<std::size_t>(pe)]);
      }
      MUSK_ASSERT(amount > 0);

      PricedCycle pc;
      pc.cycle.amount = amount;
      pc.cycle.edges.push_back(e);
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        pc.cycle.edges.push_back(*it);
      }
      const double fee_per_hop = fee_rate_ * static_cast<double>(amount);
      double paid = 0.0;
      for (EdgeId pe : path) {
        pc.prices.push_back(PlayerPrice{game.edge(pe).from, -fee_per_hop});
        paid += fee_per_hop;
      }
      pc.prices.push_back(PlayerPrice{depleted.to, paid});
      for (EdgeId ce : pc.cycle.edges) {
        remaining[static_cast<std::size_t>(ce)] -= amount;
        outcome.circulation[static_cast<std::size_t>(ce)] += amount;
      }
      outcome.cycles.push_back(std::move(pc));
      progress = true;
    }
  }
  return outcome;
}

}  // namespace musketeer::core
