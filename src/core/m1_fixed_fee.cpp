#include "core/m1_fixed_fee.hpp"

#include "util/assert.hpp"

namespace musketeer::core {

namespace {

// M1's objective graph: depleted edges weigh k * p_hat, indifferent
// edges -p_hat (the bid magnitudes are ignored — see the header).
struct M1Source {
  const Game& game;
  const BidVector& bids;
  double fee_rate;
  double k;

  NodeId num_nodes() const { return game.num_players(); }
  EdgeId num_edges() const { return game.num_edges(); }
  NodeId edge_from(EdgeId e) const { return game.edge(e).from; }
  NodeId edge_to(EdgeId e) const { return game.edge(e).to; }
  Amount capacity(EdgeId e) const { return game.edge(e).capacity; }
  double gain(EdgeId e) const {
    return bids.head[static_cast<std::size_t>(e)] > 0.0 ? k * fee_rate
                                                        : -fee_rate;
  }
};

}  // namespace

M1FixedFee::M1FixedFee(double fee_rate, double k)
    : fee_rate_(fee_rate), k_(k) {
  MUSK_ASSERT_MSG(fee_rate > 0.0, "fee rate must be positive");
  MUSK_ASSERT_MSG(k >= 1.0, "buyer-rate multiplier k must be >= 1");
  MUSK_ASSERT_MSG(k * fee_rate < kMaxFeeRate,
                  "k * p_hat must respect the 10% valuation bound");
}

Game m1_self_selected(const Game& game, double fee_rate, double k) {
  Game filtered(game.num_players());
  for (EdgeId e = 0; e < game.num_edges(); ++e) {
    const GameEdge& edge = game.edge(e);
    if (edge.head_valuation > 0.0) {
      // A buyer joins only if the worst-case rate k * p_hat is worth it.
      if (edge.head_valuation >= k * fee_rate) {
        filtered.add_edge(edge.from, edge.to, edge.capacity,
                          edge.tail_valuation, edge.head_valuation);
      }
    } else if (-edge.tail_valuation <= fee_rate) {
      // A seller joins only if the fixed fee covers its cost.
      filtered.add_edge(edge.from, edge.to, edge.capacity,
                        edge.tail_valuation, edge.head_valuation);
    }
  }
  return filtered;
}

Outcome M1FixedFee::run_impl(flow::SolveContext& ctx, const Game& game,
                             const BidVector& bids) const {
  MUSK_ASSERT(bids.size() == static_cast<std::size_t>(game.num_edges()));

  // D = declared depleted edges (positive head bid); the rest are I.
  std::vector<bool> depleted(static_cast<std::size_t>(game.num_edges()));
  for (EdgeId e = 0; e < game.num_edges(); ++e) {
    depleted[static_cast<std::size_t>(e)] =
        bids.head[static_cast<std::size_t>(e)] > 0.0;
  }
  ctx.bind_from(M1Source{game, bids, fee_rate_, k_});

  Outcome outcome;
  outcome.circulation = ctx.solve();
  for (flow::CycleFlow& cycle : ctx.decompose(outcome.circulation)) {
    // Seller fees: each indifferent edge's tail earns p_hat per unit.
    PricedCycle pc;
    int num_depleted = 0;
    double seller_cost = 0.0;
    for (EdgeId e : cycle.edges) {
      if (depleted[static_cast<std::size_t>(e)]) {
        ++num_depleted;
      } else {
        const double fee = fee_rate_ * static_cast<double>(cycle.amount);
        pc.prices.push_back(PlayerPrice{game.edge(e).from, -fee});
        seller_cost += fee;
      }
    }
    // A cycle with positive objective weight necessarily contains a
    // depleted edge (indifferent edges only contribute negatively).
    MUSK_ASSERT_MSG(num_depleted > 0,
                    "optimal M1 cycles contain a depleted edge");
    const double buyer_charge = seller_cost / static_cast<double>(num_depleted);
    for (EdgeId e : cycle.edges) {
      if (depleted[static_cast<std::size_t>(e)]) {
        pc.prices.push_back(PlayerPrice{game.edge(e).to, buyer_charge});
      }
    }
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

}  // namespace musketeer::core
