// Mechanism M1 (§3.2): rebalancing with publicly fixed fees.
//
// No bids are submitted; users only declare which of their channel
// directions are depleted (the set D). A public fee rate p_hat and a
// buyer-rate bound k are known upfront:
//   * every indifferent edge earns its tail (seller) p_hat per unit flow;
//   * every depleted edge's head (buyer) is charged at most k * p_hat
//     per unit flow.
// The circulation maximizes  sum_D k*p_hat*f(e) - sum_I p_hat*f(e),
// which admits only cycles with fewer than k indifferent edges per
// depleted edge; the per-cycle seller cost C_i is split equally among the
// cycle's depleted edges, so each cycle is exactly budget balanced and
// buyers never exceed the k*p_hat rate (Theorem 2).
//
// Within the common Mechanism interface, M1 reads only the *sign* of the
// head bids to recover D (head bid > 0 <=> declared depleted); magnitudes
// are ignored, mirroring the paper's bid-free input.
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class M1FixedFee : public Mechanism {
 public:
  /// `fee_rate` is p_hat (> 0) and `k` >= 1 bounds the buyer rate at
  /// k * p_hat; k * fee_rate must stay below the 10% valuation bound.
  M1FixedFee(double fee_rate, double k);

  std::string_view name() const override { return "M1-fixed-fee"; }

  /// M1 is IR only after the self-selection step (m1_self_selected); run
  /// on an unrestricted game a conscripted seller may be paid below cost.
  bool claims_individual_rationality() const override { return false; }

  double fee_rate() const { return fee_rate_; }
  double k() const { return k_; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  double fee_rate_;
  double k_;
};

/// The self-selection step of Theorem 2: since p_hat and k are public,
/// users join M1 only if it can't hurt them. Returns the game restricted
/// to edges whose owners opt in — sellers with cost <= fee_rate and
/// buyers with value >= k * fee_rate (plus free capacity). M1 run on this
/// restriction is individually rational for every participant.
Game m1_self_selected(const Game& game, double fee_rate, double k);

}  // namespace musketeer::core
