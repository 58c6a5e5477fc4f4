// sharded_solve — the component solve, measured.
//
// Sweeps cluster count (how many weakly-connected components the bid
// graph splits into) against executor thread count, timing repeated
// rebind+solve rounds through one SolveContext — the epoch service's
// steady-state clearing loop. The baseline is the flat solve_max_welfare
// on the whole graph (pooled workspace), which runs every negative-cycle
// search over ALL arcs; the context scans only the owning component's
// arcs per search, so the work drops by roughly the component count even
// on one thread — which is what the acceptance gate checks (>= 2x on the
// 8-cluster n=400 game), keeping it meaningful on single-core CI
// runners. The threads=1 rows are that one-thread cost (components in
// turn on the calling thread, what "--threads 1" runs); more threads
// add wall-clock parallelism on multi-core hosts.
//
// Every context solve is cross-checked bit-for-bit against the
// whole-graph circulation. Set MUSK_BENCH_SHORT=1 for the CI smoke
// variant (smaller clusters, fewer reps; same gate).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "flow/solve_context.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "svc/executor.hpp"
#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// `clusters` disjoint BA games glued into one Game with node offsets:
/// a bid graph with a known component structure.
core::Game clustered_game(int clusters, flow::NodeId nodes_per_cluster,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  core::Game merged(clusters * nodes_per_cluster);
  for (int c = 0; c < clusters; ++c) {
    gen::GameConfig config;
    config.depleted_share = 0.35;
    const core::Game part =
        gen::random_ba_game(nodes_per_cluster, 2, config, rng);
    const flow::NodeId offset = c * nodes_per_cluster;
    for (core::EdgeId e = 0; e < part.num_edges(); ++e) {
      const core::GameEdge& edge = part.edge(e);
      merged.add_edge(edge.from + offset, edge.to + offset, edge.capacity,
                      edge.tail_valuation, edge.head_valuation);
    }
  }
  return merged;
}

struct RunResult {
  double seconds = 0.0;
  flow::Circulation last;
};

/// `reps` flat solves of the whole graph through one pooled workspace.
RunResult run_whole_graph(const core::Game& game, int reps) {
  const flow::Graph g = game.build_graph(game.truthful_bids());
  flow::Workspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  for (int rep = 0; rep < reps; ++rep) {
    r.last = flow::solve_max_welfare(g, ws, flow::SolverKind::kBellmanFord);
  }
  r.seconds = seconds_since(t0);
  return r;
}

/// `reps` rebind+solve rounds through one context.
RunResult run_epochs(const core::Game& game, flow::Executor& executor,
                     int reps) {
  const core::BidVector bids = game.truthful_bids();
  flow::SolveContext ctx;
  ctx.set_executor(&executor);
  game.bind_graph(ctx, bids);  // structure build outside the timed region
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  for (int rep = 0; rep < reps; ++rep) {
    game.bind_graph(ctx, bids);  // rebind: dirties every component
    r.last = ctx.solve(flow::SolverKind::kBellmanFord);
  }
  r.seconds = seconds_since(t0);
  return r;
}

}  // namespace

int main() {
  const bool short_mode = [] {
    const char* v = std::getenv("MUSK_BENCH_SHORT");
    return v != nullptr && *v != '\0' && *v != '0';
  }();

  const flow::NodeId nodes_per_cluster = short_mode ? 25 : 50;
  const int reps = short_mode ? 3 : 10;
  const std::vector<int> cluster_counts{1, 4, 8};
  const std::vector<int> thread_counts{1, 2, 8};

  std::printf("sharded_solve: component solve vs whole-graph solve%s\n"
              "(%d nodes per cluster, %d solves per cell)\n\n",
              short_mode ? " (short mode)" : "", nodes_per_cluster, reps);
  util::BenchReport bench("sharded_solve");
  bench.config("short_mode", short_mode);
  bench.config("nodes_per_cluster", static_cast<std::int64_t>(nodes_per_cluster));
  bench.config("reps", static_cast<std::int64_t>(reps));

  util::Table table({"clusters", "nodes", "edges", "threads", "seconds",
                     "solves/s", "speedup vs whole"});
  double gate_speedup = 0.0;
  for (const int clusters : cluster_counts) {
    const core::Game game =
        clustered_game(clusters, nodes_per_cluster, /*seed=*/7);
    const RunResult whole = run_whole_graph(game, reps);
    bench.add_seconds(util::format("solve/whole/c%d", clusters), whole.seconds,
                      static_cast<std::uint64_t>(reps));
    table.add_row({util::fmt_int(clusters), util::fmt_int(game.num_players()),
                   util::fmt_int(game.num_edges()), "whole graph",
                   util::fmt_double(whole.seconds, 3),
                   util::fmt_double(reps / whole.seconds, 1), "1.00x"});
    for (const int threads : thread_counts) {
      svc::ParallelExecutor executor(threads);
      const RunResult sharded = run_epochs(game, executor, reps);
      MUSK_ASSERT_MSG(sharded.last == whole.last,
                      "component solve diverged from whole-graph solve");
      const double speedup = whole.seconds / sharded.seconds;
      if (clusters == 8 && threads == 8) gate_speedup = speedup;
      bench.add_seconds(
          util::format("solve/t%d/c%d", threads, clusters), sharded.seconds,
          static_cast<std::uint64_t>(reps));
      table.add_row(
          {util::fmt_int(clusters), util::fmt_int(game.num_players()),
           util::fmt_int(game.num_edges()), util::fmt_int(threads),
           util::fmt_double(sharded.seconds, 3),
           util::fmt_double(reps / sharded.seconds, 1),
           util::format("%.2fx", speedup)});
    }
  }
  table.print();
  util::maybe_export_csv(table, "sharded_solve");

  std::printf("\n8-cluster speedup at 8 threads: %.2fx\n", gate_speedup);
  // The acceptance gate: on the 8-component game the component solve
  // must at least halve the whole-graph solve time. The bound holds even
  // on one core — each negative-cycle search scans ~1/8 of the arcs.
  MUSK_ASSERT_MSG(gate_speedup >= 2.0,
                  "component solve must be >= 2x on the 8-cluster game");
  return 0;
}
