#include "core/m2_vcg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "flow/executor.hpp"
#include "flow/solver.hpp"
#include "obs/obs.hpp"
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
/// game's buyers-only graph. The buyers are dealt round-robin to one
/// executor task per thread. Each task masks every buyer it holds on its
/// own copy of the bound graph and re-solves the whole G_{-v} through its
/// own workspace with the network simplex, the solver of ctx.solve(), so
/// SolveContext stays single-threaded state. A price depends only on its
/// own masked solve (reusing a workspace is bit-identical) and lands in
/// its buyer's own slot, so prices are bit-identical to fresh G_{-v}
/// solves at any thread count.
std::vector<double> exclusion_prices(flow::SolveContext& ctx,
                                     const Game& game, const BidVector& bids,
                                     const flow::Circulation& f) {
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
  const std::size_t tasks = std::min(
      static_cast<std::size_t>(ctx.executor().concurrency()), buyers.size());
  ctx.executor().run(tasks, [&](std::size_t t) {
    // Deliberate copy: the task masks capacities in place, so it needs
    // its own graph, not the context's.
    flow::Graph g = ctx.graph();  // musk-lint: allow(graph-in-mechanism)
    flow::Workspace ws;
    flow::SavedCapacities saved;
    flow::SolveStats stats;
    std::uint64_t solves = 0;
    for (std::size_t i = t; i < buyers.size(); i += tasks) {
      const PlayerId v = buyers[i];
      flow::mask_node(g, v, saved);
      const flow::Circulation f_minus = flow::solve_max_welfare(
          g, ws, flow::SolverKind::kNetworkSimplex, &stats, ctx.cancel());
      flow::restore_capacities(g, saved);
      ++solves;
      prices[static_cast<std::size_t>(v)] =
          welfare_without(game, bids, v, f_minus) -
          welfare_without(game, bids, v, f);
    }
    // The exclusions bypass SolveContext::solve, so they count their
    // solver work here.
    MUSK_OBS_COUNT("core.vcg.exclusion_solves_total", solves);
    MUSK_OBS_COUNT("flow.solve.fallback_total",
                   static_cast<std::uint64_t>(stats.fallbacks));
    MUSK_OBS_COUNT("flow.simplex.pivots_total",
                   static_cast<std::uint64_t>(stats.pivots));
    MUSK_OBS_COUNT("flow.solve.zero_certified_total",
                   static_cast<std::uint64_t>(stats.zero_flow_certified));
    MUSK_OBS_COUNT("flow.bf.passes_total",
                   static_cast<std::uint64_t>(stats.bf_passes));
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
  const flow::Circulation f = ctx.solve();
  return exclusion_prices(ctx, game, bids, f);
}

Outcome M2Vcg::run_impl(flow::SolveContext& ctx, const Game& game,
                        const BidVector& raw_bids) const {
  const BidVector bids = buyers_only(raw_bids);
  MUSK_ASSERT_MSG(game.is_valid(bids), "invalid bid vector");

  game.bind_graph(ctx, bids);
  Outcome outcome;
  outcome.circulation = ctx.solve();
  const std::vector<double> aggregate =
      exclusion_prices(ctx, game, bids, outcome.circulation);
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
