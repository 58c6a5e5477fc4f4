#include "core/m3_double_auction.hpp"

#include "util/assert.hpp"

namespace musketeer::core {

std::vector<PlayerPrice> price_cycle_welfare_share(
    const Game& game, const BidVector& bids, const flow::CycleFlow& cycle) {
  const std::vector<PlayerId> players = game.cycle_players(cycle);
  const double share = game.cycle_welfare(bids, cycle) /
                       static_cast<double>(players.size());
  std::vector<PlayerPrice> prices;
  prices.reserve(players.size());
  for (PlayerId v : players) {
    prices.push_back(
        PlayerPrice{v, game.player_cycle_value(v, bids, cycle) - share});
  }
  return prices;
}

Outcome M3DoubleAuction::run_impl(flow::SolveContext& ctx, const Game& game,
                                  const BidVector& bids) const {
  MUSK_ASSERT_MSG(game.is_valid(bids), "invalid bid vector");
  {
    MUSK_OBS_SPAN(bind_span, "core.bind_graph");
    game.bind_graph(ctx, bids);
  }
  Outcome outcome;
  outcome.circulation = ctx.solve();
  std::vector<flow::CycleFlow> cycles = ctx.decompose(outcome.circulation);
  MUSK_OBS_SPAN(pricing_span, "core.pricing");
  for (flow::CycleFlow& cycle : cycles) {
    PricedCycle pc;
    pc.prices = price_cycle_welfare_share(game, bids, cycle);
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  MUSK_OBS_HISTOGRAM("core.pricing.seconds", pricing_span.end());
  return outcome;
}

}  // namespace musketeer::core
