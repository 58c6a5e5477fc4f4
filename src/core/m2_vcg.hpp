// Mechanism M2 (§3.3): a VCG-type truthful single auction.
//
// Sellers are assumed non-strategic (all tail bids are treated as 0);
// buyers submit non-negative head bids. Prices follow the VCG pivot rule
//     p(v) = SW(b_{-v}, f_{-v}) - SW(b_{-v}, f),
// where f_{-v} maximizes welfare on G_{-v} (v and its incident edges
// removed). Buyer truthfulness and individual rationality follow the
// classic argument (Theorem 3). The aggregate VCG charge of each player is
// split across cycles in proportion to the player's bid value for the
// cycle, and each cycle's collected fees are redistributed equally among
// that cycle's sellers to restore cyclic budget balance.
//
// Two boundary cases the paper leaves implicit (see DESIGN.md §5):
//   * A buyer with p(v) != 0 but zero bid value in f has no proportional
//     split; the charge is dropped (the buyer won nothing to pay for).
//   * A cycle whose collected fees q_i are negative, or that has no
//     seller to absorb q_i > 0, cannot be balanced without taxing
//     zero-valuation players; its prices are zeroed. This is exactly the
//     "minimum fees for sellers" limitation discussed in §4.
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class M2Vcg : public Mechanism {
 public:
  explicit M2Vcg(flow::SolverKind solver = flow::SolverKind::kNetworkSimplex)
      : solver_(solver) {}

  std::string_view name() const override { return "M2-vcg"; }

  /// M2's sellers are non-strategic: its guarantees (and hence the audit)
  /// are stated against the bid profile with tail bids forced to zero.
  BidVector audited_bids(const BidVector& bids) const override {
    BidVector out = bids;
    for (double& t : out.tail) t = 0.0;
    return out;
  }

  /// Aggregate VCG pivot price of each player under the given bids (tail
  /// bids zeroed). Exposed for tests and the truthfulness bench. Each
  /// exclusion is an O(deg) capacity mask (flow::mask_node) on a copy of
  /// the bound graph, re-solved whole — no per-buyer graph rebuilds. The
  /// buyers are dealt round-robin to one task per thread of `ctx`'s
  /// executor, each with its own graph copy and workspace; `ctx` itself
  /// is never shared across threads. Prices are bit-identical to fresh
  /// G_{-v} solves at any thread count.
  std::vector<double> vcg_prices(flow::SolveContext& ctx, const Game& game,
                                 const BidVector& bids) const;

  /// Context-free convenience (thread-local context).
  std::vector<double> vcg_prices(const Game& game, const BidVector& bids) const;

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  flow::SolverKind solver_;
};

}  // namespace musketeer::core
