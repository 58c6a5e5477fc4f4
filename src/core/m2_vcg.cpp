#include "core/m2_vcg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "flow/executor.hpp"
#include "flow/partitioner.hpp"
#include "util/assert.hpp"

namespace musketeer::core {

namespace {

constexpr double kTiny = 1e-12;

// M2's model: sellers are non-strategic, so tail bids are forced to zero.
BidVector buyers_only(const BidVector& bids) {
  BidVector out = bids;
  for (double& t : out.tail) t = 0.0;
  return out;
}

// SW(b_{-v}, f): welfare of f with player v's stakes removed.
double welfare_without(const Game& game, const BidVector& bids, PlayerId v,
                       const flow::Circulation& f) {
  return game.social_welfare(bids, f) - game.player_value(v, bids, f);
}

/// Aggregate VCG prices given `f`, the optimum `ctx` just solved on the
/// game's buyers-only graph. f_{-v} differs from f only on v's
/// weakly-connected component, so each exclusion re-solves that
/// component alone, and components reprice as independent executor
/// tasks. Every task owns a private copy of its component subgraph plus
/// a fresh workspace — SolveContext stays single-threaded state. Prices
/// land in disjoint slots (a buyer belongs to exactly one component),
/// and each is the full-graph welfare difference, bit-identical to
/// solving G_{-v} whole.
std::vector<double> exclusion_prices(flow::SolveContext& ctx,
                                     const Game& game, const BidVector& bids,
                                     const flow::Circulation& f,
                                     flow::SolverKind solver) {
  // Only buyers (players with a positive head bid) are strategic and
  // priced; sellers are compensated by redistribution instead.
  std::vector<PlayerId> buyers;
  {
    std::vector<bool> is_buyer(static_cast<std::size_t>(game.num_players()),
                               false);
    for (EdgeId e = 0; e < game.num_edges(); ++e) {
      if (bids.head[static_cast<std::size_t>(e)] > 0.0) {
        is_buyer[static_cast<std::size_t>(game.edge(e).to)] = true;
      }
    }
    for (PlayerId v = 0; v < game.num_players(); ++v) {
      if (is_buyer[static_cast<std::size_t>(v)]) buyers.push_back(v);
    }
  }

  std::vector<double> prices(static_cast<std::size_t>(game.num_players()), 0.0);
  std::vector<std::vector<PlayerId>> by_component(
      static_cast<std::size_t>(ctx.num_components()));
  std::vector<int> priced_components;
  for (const PlayerId v : buyers) {
    const int c = ctx.component_of(v);
    MUSK_ASSERT_MSG(c != flow::kNoComponent, "buyer with no incident edge");
    if (by_component[static_cast<std::size_t>(c)].empty()) {
      priced_components.push_back(c);
    }
    by_component[static_cast<std::size_t>(c)].push_back(v);
  }
  ctx.executor().run(priced_components.size(), [&](std::size_t i) {
    const int c = priced_components[i];
    // Deliberate copy: each task masks caps in place, so it needs its
    // own graph, not the context's shared shard.
    flow::Graph g = ctx.component_graph(c);  // musk-lint: allow(graph-in-mechanism)
    flow::Workspace ws;
    const std::span<const flow::EdgeId> edges = ctx.component_edges(c);
    flow::Circulation f_minus = f;
    flow::SavedCapacities saved;
    for (const PlayerId v : by_component[static_cast<std::size_t>(c)]) {
      flow::mask_node(g, v, saved);
      const flow::Circulation local =
          flow::solve_max_welfare(g, ws, solver, nullptr, ctx.cancel());
      flow::restore_capacities(g, saved);
      // Scatter overwrites every component entry, so f_minus needs no
      // reset between buyers; outside the component it stays equal to f
      // — exactly the whole-graph f_{-v} (a whole-graph solve of G_{-v}
      // reproduces f on every unmasked component).
      for (std::size_t local_e = 0; local_e < edges.size(); ++local_e) {
        f_minus[static_cast<std::size_t>(edges[local_e])] = local[local_e];
      }
      prices[static_cast<std::size_t>(v)] =
          welfare_without(game, bids, v, f_minus) -
          welfare_without(game, bids, v, f);
    }
  });
  return prices;
}

}  // namespace

std::vector<double> M2Vcg::vcg_prices(const Game& game,
                                      const BidVector& raw_bids) const {
  return vcg_prices(flow::local_context(), game, raw_bids);
}

std::vector<double> M2Vcg::vcg_prices(flow::SolveContext& ctx,
                                      const Game& game,
                                      const BidVector& raw_bids) const {
  const BidVector bids = buyers_only(raw_bids);
  game.bind_graph(ctx, bids);
  const flow::Circulation f = ctx.solve(solver_);
  return exclusion_prices(ctx, game, bids, f, solver_);
}

Outcome M2Vcg::run_impl(flow::SolveContext& ctx, const Game& game,
                        const BidVector& raw_bids) const {
  const BidVector bids = buyers_only(raw_bids);
  MUSK_ASSERT_MSG(game.is_valid(bids), "invalid bid vector");

  game.bind_graph(ctx, bids);
  Outcome outcome;
  outcome.circulation = ctx.solve(solver_);
  const std::vector<double> aggregate =
      exclusion_prices(ctx, game, bids, outcome.circulation, solver_);
  std::vector<flow::CycleFlow> cycles = ctx.decompose(outcome.circulation);

  // Per-player total bid value over the whole circulation (denominator of
  // the proportional split).
  std::vector<double> total_value(static_cast<std::size_t>(game.num_players()),
                                  0.0);
  for (PlayerId v = 0; v < game.num_players(); ++v) {
    total_value[static_cast<std::size_t>(v)] =
        game.player_value(v, bids, outcome.circulation);
  }

  for (flow::CycleFlow& cycle : cycles) {
    PricedCycle pc;
    const std::vector<PlayerId> players = game.cycle_players(cycle);

    // Step 4: split p(v) proportional to v's bid value for this cycle.
    double collected = 0.0;
    std::vector<bool> charged(players.size(), false);
    std::vector<double> charges(players.size(), 0.0);
    for (std::size_t i = 0; i < players.size(); ++i) {
      const PlayerId v = players[i];
      const double pv = aggregate[static_cast<std::size_t>(v)];
      const double denom = total_value[static_cast<std::size_t>(v)];
      if (std::abs(pv) < kTiny || std::abs(denom) < kTiny) continue;
      const double share =
          pv * game.player_cycle_value(v, bids, cycle) / denom;
      if (std::abs(share) < kTiny) continue;
      charges[i] = share;
      charged[i] = true;
      collected += share;
    }

    // Steps 5-6: redistribute the collected fees to this cycle's sellers
    // (participants without a charge). Fall back to a free cycle when the
    // redistribution cannot be balanced (see header).
    const auto num_sellers =
        std::count(charged.begin(), charged.end(), false);
    if (collected < -kTiny || (collected > kTiny && num_sellers == 0)) {
      pc.cycle = std::move(cycle);
      outcome.cycles.push_back(std::move(pc));
      continue;
    }
    for (std::size_t i = 0; i < players.size(); ++i) {
      if (charged[i]) {
        pc.prices.push_back(PlayerPrice{players[i], charges[i]});
      } else if (collected > kTiny) {
        pc.prices.push_back(PlayerPrice{
            players[i], -collected / static_cast<double>(num_sellers)});
      }
    }
    pc.cycle = std::move(cycle);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

}  // namespace musketeer::core
