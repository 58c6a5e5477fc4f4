// Baseline rebalancing schemes the paper positions Musketeer against.
//
//  * HideSeek — the globally optimal buyers-only rebalancing of Hide &
//    Seek [10] / Revive [25]: only depleted edges (channels whose owners
//    personally want rebalancing) form the rebalancing subgraph; flow is
//    maximized over them; nobody pays or earns fees. Sellers' idle
//    liquidity is left unused — the under-utilization Musketeer fixes.
//  * LocalRebalancing — the Lightning `rebalance`-plugin model [1]: each
//    buyer independently searches for a return path through the network
//    (bounded depth), paying the public fee rate per hop, greedily and
//    sequentially. Finds only what a local search can see.
//  * NoRebalancing — the do-nothing control.
//
// All three implement the common Mechanism interface so E1/E4 can sweep
// {none, local, hide&seek, M1..M4} uniformly.
#pragma once

#include "core/mechanism.hpp"

namespace musketeer::core {

class NoRebalancing : public Mechanism {
 public:
  std::string_view name() const override { return "no-rebalancing"; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;
};

class HideSeek : public Mechanism {
 public:
  std::string_view name() const override { return "hide-and-seek"; }

  /// Hide & Seek maximizes rebalanced liquidity over the depleted
  /// subgraph and ignores private seller costs entirely — a seller edge
  /// conscripted into a cycle can lose. Not an IR mechanism.
  bool claims_individual_rationality() const override { return false; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;
};

class LocalRebalancing : public Mechanism {
 public:
  /// `max_path_length` bounds the return-path search depth (total cycle
  /// length is max_path_length + 1); `fee_rate` is the public per-hop fee
  /// the buyer pays to intermediaries.
  explicit LocalRebalancing(int max_path_length = 4, double fee_rate = 0.001);

  std::string_view name() const override { return "local-rebalancing"; }

  /// Intermediaries are compensated at the public fee rate regardless of
  /// their private routing cost, so IR can fail for them by construction.
  bool claims_individual_rationality() const override { return false; }

 protected:
  Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                   const BidVector& bids) const override;

 private:
  int max_path_length_;
  double fee_rate_;
};

}  // namespace musketeer::core
