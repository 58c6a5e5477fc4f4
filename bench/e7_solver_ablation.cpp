// E7 — solver ablation: Bellman–Ford cycle cancelling vs network simplex
// vs the LP simplex referee. Same optimum everywhere (checked exactly);
// very different runtimes and iteration counts. Exits 1 if the solvers
// disagree on any game, so CI runs it as the solver referee.
#include <chrono>
#include <cstdio>
#include <utility>

#include "flow/residual.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "lp/flow_lp.hpp"
#include "obs/trace.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  util::BenchReport bench("e7_solver_ablation");
  bench.config("trials_per_size", std::int64_t{3});
  std::printf("E7: solver ablation (3 random games per size; welfare "
              "agreement checked exactly)\n\n");

  util::Rng rng(2468);
  bool every_size_agrees = true;
  util::Table table({"n", "edges", "BF ms", "BF passes", "simplex ms",
                     "simplex pivots", "NS fallbacks", "LP ms", "agree"});
  for (flow::NodeId n : {16, 32, 64, 128}) {
    util::Accumulator bf_ms, ns_ms, lp_ms, bf_cycles, bf_passes, ns_pivots,
        lp_iters;
    int ns_fallbacks = 0;  // pivot-cap fallbacks to the BF canceller
    int edges = 0;
    bool all_agree = true;
    for (int trial = 0; trial < 3; ++trial) {
      gen::GameConfig config;
      config.depleted_share = 0.3;
      config.capacity_max = 50;
      const core::Game game = gen::random_ba_game(n, 2, config, rng);
      const flow::Graph g = game.build_graph(game.truthful_bids());
      edges = g.num_edges();

      auto t0 = std::chrono::steady_clock::now();
      flow::SolveStats bf_stats;
      const flow::Circulation f_bf =
          flow::solve_max_welfare(g, flow::SolverKind::kBellmanFord, &bf_stats);
      bf_ms.add(ms_since(t0));
      bf_cycles.add(bf_stats.cycles_cancelled);
      bf_passes.add(static_cast<double>(bf_stats.bf_passes));

      t0 = std::chrono::steady_clock::now();
      flow::SolveStats ns_stats;
      const flow::Circulation f_ns = flow::solve_max_welfare(
          g, flow::SolverKind::kNetworkSimplex, &ns_stats);
      ns_ms.add(ms_since(t0));
      ns_pivots.add(ns_stats.pivots);
      ns_fallbacks += ns_stats.fallbacks;

      t0 = std::chrono::steady_clock::now();
      const lp::FlowLpResult lp_result = lp::solve_circulation_lp(g);
      lp_ms.add(ms_since(t0));
      lp_iters.add(lp_result.iterations > 0 ? lp_result.iterations : 0);

      const auto w_bf = flow::scaled_welfare(g, f_bf);
      const double w_lp = lp_result.welfare;
      if (flow::scaled_welfare(g, f_ns) != w_bf ||
          std::abs(w_lp - static_cast<double>(w_bf) / flow::kGainScale) >
              1e-5) {
        all_agree = false;
      }
      // Exact optimality certificate on both combinatorial solutions.
      if (!flow::is_optimal(g, f_bf) || !flow::is_optimal(g, f_ns)) {
        all_agree = false;
      }
    }
    // ms means over the trials -> ns/op per solver at this size.
    const std::pair<const char*, const util::Accumulator*> solver_ms[] = {
        {"bellman_ford", &bf_ms},
        {"network_simplex", &ns_ms},
        {"lp_simplex", &lp_ms}};
    for (const auto& [op, acc] : solver_ms) {
      bench.add(util::format("%s/n%d", op, n), 1e6 * acc->mean(),
                acc->count());
    }
    table.add_row({util::fmt_int(n), util::fmt_int(edges),
                   util::fmt_double(bf_ms.mean(), 2),
                   util::fmt_double(bf_passes.mean(), 0),
                   util::fmt_double(ns_ms.mean(), 2),
                   util::fmt_double(ns_pivots.mean(), 0),
                   util::fmt_int(ns_fallbacks),
                   util::fmt_double(lp_ms.mean(), 2),
                   all_agree ? "yes" : "NO"});
    every_size_agrees = every_size_agrees && all_agree;
  }
  table.print();
  std::printf(
      "\nexpected shape: all three solvers agree on the optimum exactly\n"
      "(checked via scaled-integer welfare plus the residual-cycle\n"
      "certificate). Network simplex is fastest at every n, and its lead\n"
      "over the canceller grows with n (E5 runs both to n=512); the dense\n"
      "LP simplex is the slow independent referee.\n");
  if (!every_size_agrees) {
    std::fprintf(stderr, "e7_solver_ablation: the solvers disagree\n");
    return 1;
  }
  return 0;
}
