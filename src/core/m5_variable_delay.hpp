// Mechanism M5 (§4 "Variable Delay Costs"): M4 with per-player delay
// factors.
//
// Different users value earlier release differently — the paper reads
// d_v as the opportunity cost of capital locked in depleted channels.
// M5 keeps M4's circulation and prices, but each cycle's release time is
// normalized by the *largest* delay factor among its participants:
//     t_i = 1 - (1 - 1/n_i) * SW(b, f_i) / max_{v in f_i} d_v,
// so the most delay-sensitive participant receives exactly the bonus
// M4's truthfulness telescoping needs, while everyone else receives
// d_v * (1 - t_i) <= that amount.
//
// Consequences (the paper's predicted difficulty, measurable in
// bench/e10_variable_delay):
//   * IR still holds: bonuses are non-negative on top of M3's IR prices.
//   * Truthfulness holds exactly for the max-d participant of each cycle
//     and degrades for lower-d participants in proportion to the spread
//     d_max/d_v — their utility retains a bid-dependent residual.
#pragma once

#include <vector>

#include "core/mechanism.hpp"

namespace musketeer::core {

class M5VariableDelay : public Mechanism {
 public:
  /// One positive delay factor per player.
  explicit M5VariableDelay(std::vector<double> delay_factors);

  std::string_view name() const override { return "M5-variable-delay"; }

  const std::vector<double>& delay_factors() const { return delay_factors_; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  std::vector<double> delay_factors_;
};

}  // namespace musketeer::core
