#include "core/m4_delayed.hpp"

#include <algorithm>

#include "core/m3_double_auction.hpp"
#include "util/assert.hpp"

namespace musketeer::core {

M4DelayedAuction::M4DelayedAuction(double delay_factor)
    : delay_factor_(delay_factor) {
  MUSK_ASSERT_MSG(delay_factor > 0.0, "delay factor d must be positive");
}

Outcome M4DelayedAuction::run_impl(flow::SolveContext& ctx, const Game& game,
                                   const BidVector& bids) const {
  MUSK_ASSERT_MSG(game.is_valid(bids), "invalid bid vector");
  game.bind_graph(ctx, bids);
  Outcome outcome;
  outcome.circulation = ctx.solve();
  for (flow::CycleFlow& cycle : ctx.decompose(outcome.circulation)) {
    PricedCycle pc;
    pc.prices = price_cycle_welfare_share(game, bids, cycle);
    const double n = static_cast<double>(cycle.length());
    const double sw = game.cycle_welfare(bids, cycle);
    const double raw_time = 1.0 - (1.0 - 1.0 / n) * sw / delay_factor_;
    pc.release_time = std::clamp(raw_time, 0.0, 1.0);
    pc.delay_bonus = delay_factor_ * (1.0 - pc.release_time);
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

}  // namespace musketeer::core
