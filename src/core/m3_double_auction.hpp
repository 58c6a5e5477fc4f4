// Mechanism M3 (§3.4): a first-price-style double auction.
//
// 1. f := argmax SW(b, f) over feasible circulations.
// 2. Sign-consistent cycle decomposition f_1..f_k.
// 3. For each cycle f_i of length n_i and each of its n_i participating
//    vertices v:  p_i(v) := b_v(f_i) - SW(b, f_i) / n_i.
//
// Properties (Theorem 4): economic efficiency, individual rationality and
// cyclic budget balance — but NOT truthfulness (players are incentivized
// to shade bids like in a first-price auction; bench/e3_truthfulness
// quantifies the deviation gains).
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class M3DoubleAuction : public Mechanism {
 public:
  std::string_view name() const override { return "M3-double-auction"; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;
};

/// Shared by M3 and M4: prices one cycle with the uniform welfare-share
/// rule p_i(v) = b_v(f_i) - SW(b, f_i)/n_i over the cycle's n_i vertices.
std::vector<PlayerPrice> price_cycle_welfare_share(const Game& game,
                                                   const BidVector& bids,
                                                   const flow::CycleFlow& cycle);

}  // namespace musketeer::core
