// M2-MinFee (§4 "Minimum Fees for Sellers"): a VCG-style single auction
// that guarantees every seller a floor fee per unit routed.
//
// M2's known limitation: the buyers' VCG charges depend on competition in
// the graph — with a single feasible cycle the pivot payment is zero and
// sellers route for free. The paper asks whether a modified mechanism can
// guarantee a minimum per-unit fee to sellers. This variant answers
// constructively at a known cost:
//
//   1. Run M2 (circulation, VCG charges, proportional per-cycle split).
//   2. Per cycle, if the collected buyer fees fall short of
//      min_fee * (units routed through sellers), top buyers up to the
//      floor, but never beyond each buyer's per-cycle bid value (so
//      per-cycle IR under truthful bids is preserved).
//   3. If even bid-capped top-ups cannot fund the floor, drop the cycle:
//      sellers are never paid below the floor for work they do.
//
// Cost: the top-up depends on the buyer's own bid, so exact (buyer-)
// truthfulness is sacrificed — the residual manipulability and the
// liquidity lost to dropped cycles are measured in bench/e10.
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class M2MinFee : public Mechanism {
 public:
  explicit M2MinFee(double min_seller_fee);

  std::string_view name() const override { return "M2-minfee"; }

  /// Same non-strategic-seller model as M2-vcg.
  BidVector audited_bids(const BidVector& bids) const override {
    BidVector out = bids;
    for (double& t : out.tail) t = 0.0;
    return out;
  }

  double min_seller_fee() const { return min_seller_fee_; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  double min_seller_fee_;
};

}  // namespace musketeer::core
