// Mechanism M4 (§3.5): a truthful double auction with time delays.
//
// Identical to M3 in circulation and prices, plus a release time per
// cycle:
//     t_i = 1 - (1 - 1/n_i) * SW(b, f_i) / d,   clamped to [0, 1],
// where d is the global delay factor. Participants implicitly assume
// cycles release at t = 1; releasing at t_i < 1 grants every participant
// a utility bonus of d * (1 - t_i).
//
// With the bonus, a participant's per-cycle utility telescopes to
// SW((v_v, b_{-v}), f_i) — independent of the player's own bid — which is
// the paper's truthfulness argument (Theorem 5). The price paid for
// dodging the Myerson–Satterthwaite impossibility is efficiency: welfare
// is maximal in liquidity terms, but players bear delay costs.
//
// Coins are pre-locked for the maximum delay before the outcome is
// revealed (§2.2/§3.5 remark); the PCN bridge enforces this.
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class M4DelayedAuction : public Mechanism {
 public:
  /// `delay_factor` is the paper's d > 0: the marginal utility of one
  /// unit of earlier release, and the normalizer mapping cycle welfare to
  /// release times.
  explicit M4DelayedAuction(double delay_factor);

  std::string_view name() const override { return "M4-delayed-auction"; }

  double delay_factor() const { return delay_factor_; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  double delay_factor_;
};

}  // namespace musketeer::core
