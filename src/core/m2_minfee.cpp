#include "core/m2_minfee.hpp"

#include <algorithm>
#include <cmath>

#include "core/m2_vcg.hpp"
#include "util/assert.hpp"

namespace musketeer::core {

namespace {

constexpr double kTiny = 1e-12;

}  // namespace

M2MinFee::M2MinFee(double min_seller_fee)
    : min_seller_fee_(min_seller_fee) {
  MUSK_ASSERT_MSG(min_seller_fee >= 0.0 && min_seller_fee < kMaxFeeRate,
                  "seller fee floor must be a valid fee rate");
}

Outcome M2MinFee::run_impl(flow::SolveContext& ctx, const Game& game,
                           const BidVector& bids) const {
  Outcome outcome = M2Vcg().run(ctx, game, bids);

  // Tail bids are zero in M2's model; buyer stakes drive the top-ups.
  BidVector buyer_bids = bids;
  for (double& t : buyer_bids.tail) t = 0.0;

  std::vector<PricedCycle> kept;
  kept.reserve(outcome.cycles.size());
  for (PricedCycle& pc : outcome.cycles) {
    const std::vector<PlayerId> players = game.cycle_players(pc.cycle);
    const double amount = static_cast<double>(pc.cycle.amount);

    // Pure sellers: cycle participants without a positive charge. Each
    // routes `amount` units per owned cycle edge (they are the tails).
    double shortfall = 0.0;
    std::vector<double> floor_gap(players.size(), 0.0);
    for (std::size_t i = 0; i < players.size(); ++i) {
      const double price = pc.price_of(players[i]);
      if (price > kTiny) continue;  // a charged buyer, not a floor case
      int tails_owned = 0;
      for (EdgeId e : pc.cycle.edges) {
        tails_owned += (game.edge(e).from == players[i]);
      }
      const double floor =
          min_seller_fee_ * amount * static_cast<double>(tails_owned);
      const double gap = std::max(0.0, floor - (-price));
      floor_gap[i] = gap;
      shortfall += gap;
    }
    if (shortfall <= kTiny) {
      kept.push_back(std::move(pc));
      continue;
    }

    // Buyer headroom: how much more each *buyer* can pay within
    // per-cycle IR under its reported bid. Pure sellers never fund the
    // floor — that would cannibalize the very guarantee.
    double headroom_total = 0.0;
    std::vector<double> headroom(players.size(), 0.0);
    for (std::size_t i = 0; i < players.size(); ++i) {
      const double value =
          game.player_cycle_value(players[i], buyer_bids, pc.cycle);
      if (value <= kTiny) continue;
      const double room = value - pc.price_of(players[i]);
      if (room > kTiny) {
        headroom[i] = room;
        headroom_total += room;
      }
    }
    if (headroom_total + kTiny < shortfall) {
      // The cycle cannot fund the floor: drop it rather than underpay.
      for (EdgeId e : pc.cycle.edges) {
        outcome.circulation[static_cast<std::size_t>(e)] -= pc.cycle.amount;
        MUSK_ASSERT(outcome.circulation[static_cast<std::size_t>(e)] >= 0);
      }
      continue;
    }

    // Charge buyers pro-rata to headroom; pay sellers up to the floor.
    for (std::size_t i = 0; i < players.size(); ++i) {
      double delta = 0.0;
      if (headroom[i] > 0.0) {
        delta += shortfall * headroom[i] / headroom_total;
      }
      delta -= floor_gap[i];
      if (std::abs(delta) > kTiny) {
        pc.prices.push_back(PlayerPrice{players[i], delta});
      }
    }
    kept.push_back(std::move(pc));
  }
  outcome.cycles = std::move(kept);
  return outcome;
}

}  // namespace musketeer::core
