#include "core/m5_variable_delay.hpp"

#include <algorithm>

#include "core/m3_double_auction.hpp"
#include "util/assert.hpp"

namespace musketeer::core {

M5VariableDelay::M5VariableDelay(std::vector<double> delay_factors)
    : delay_factors_(std::move(delay_factors)) {
  MUSK_ASSERT_MSG(!delay_factors_.empty(), "need at least one delay factor");
  for (double d : delay_factors_) {
    MUSK_ASSERT_MSG(d > 0.0, "delay factors must be positive");
  }
}

Outcome M5VariableDelay::run_impl(flow::SolveContext& ctx, const Game& game,
                                  const BidVector& bids) const {
  MUSK_ASSERT_MSG(game.is_valid(bids), "invalid bid vector");
  MUSK_ASSERT_MSG(delay_factors_.size() ==
                      static_cast<std::size_t>(game.num_players()),
                  "one delay factor per player required");
  game.bind_graph(ctx, bids);
  Outcome outcome;
  outcome.circulation = ctx.solve();
  for (flow::CycleFlow& cycle : ctx.decompose(outcome.circulation)) {
    PricedCycle pc;
    pc.prices = price_cycle_welfare_share(game, bids, cycle);
    const std::vector<PlayerId> players = game.cycle_players(cycle);
    double d_max = 0.0;
    for (PlayerId v : players) {
      d_max = std::max(d_max, delay_factors_[static_cast<std::size_t>(v)]);
    }
    const double n = static_cast<double>(cycle.length());
    const double sw = game.cycle_welfare(bids, cycle);
    pc.release_time =
        std::clamp(1.0 - (1.0 - 1.0 / n) * sw / d_max, 0.0, 1.0);
    pc.delay_bonus = 0.0;  // superseded by the per-player bonuses
    pc.player_delay_bonuses.reserve(players.size());
    for (PlayerId v : players) {
      pc.player_delay_bonuses.push_back(PlayerPrice{
          v, delay_factors_[static_cast<std::size_t>(v)] *
                 (1.0 - pc.release_time)});
    }
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

}  // namespace musketeer::core
