// deadline_overhead — the cancel-point tax on the solve path, measured.
//
// Every solver iteration now passes MUSK_CANCEL_POINT: one branch when
// no token is installed, one relaxed atomic load (plus a steady-clock
// read while a deadline is armed) when one is. DESIGN.md §14 promises
// an armed-but-idle token is noise; this bench is the gate on that
// promise. A Bellman–Ford iteration rebuilds an O(m) residual network,
// which hides the poll; a network simplex pivot block-searches only
// ~sqrt(m) arcs plus its cycle and moved subtree, so the simplex shows
// the poll more: ~1.00x armed/null, and ~1.09–1.11x timed/null, where
// every pivot reads the clock (not gated).
//
// Three variants run the identical solve workload per solver kind:
//
//   null    solve_max_welfare(..., cancel=nullptr)  — deadlines off
//   armed   an armed token with Deadline::never()   — flag checked
//   timed   an armed token with a far-future expiry — flag + clock
//
// Measurement is sliced by time: each slice times one run per variant
// and kind back to back, every run sized (by a calibrated repetition
// count) to take at least the slice target on the null variant. The
// paired armed/null ratio of a slice sums both kinds, and the gate
// compares the median of those ratios over all slices against 1.03x.
// Pairing cancels the host's slow drift, the median discards slices a
// burst of contention spoiled, and sizing by time keeps each run long
// enough to time however fast the solvers get. Results are
// cross-checked bit-identical between variants, and the per-kind table
// plus BENCH_deadline_overhead.json record details.
//
// Set MUSK_BENCH_SHORT=1 for the CI smoke variant (shorter, fewer slices).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "flow/solver.hpp"
#include "flow/workspace.hpp"
#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

flow::Graph random_graph(flow::NodeId n, int edges, util::Rng& rng) {
  flow::Graph g(n);
  for (int e = 0; e < edges; ++e) {
    const auto u =
        static_cast<flow::NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    auto v =
        static_cast<flow::NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) v = static_cast<flow::NodeId>((v + 1) % n);
    g.add_edge(u, v, rng.uniform_int(1, 50), rng.uniform_real(-0.05, 0.05));
  }
  return g;
}

struct Variant {
  const char* label;
  util::CancelToken* token;  // null = deadlines disabled
};

/// One timed pass of the whole graph set through one variant. Returns
/// wall seconds; accumulates a checksum so the work cannot be elided.
double run_variant(const std::vector<flow::Graph>& graphs,
                   flow::SolverKind kind, const Variant& variant, int reps,
                   flow::Amount& checksum) {
  flow::Workspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const flow::Graph& g : graphs) {
      const flow::Circulation f =
          flow::solve_max_welfare(g, ws, kind, nullptr, variant.token);
      for (const flow::Amount a : f) checksum += a;
    }
  }
  return seconds_since(t0);
}

/// Repetitions of the graph set that make one null run take at least
/// `target_s` seconds.
int calibrate_reps(const std::vector<flow::Graph>& graphs,
                   flow::SolverKind kind, const Variant& null_variant,
                   double target_s) {
  int reps = 1;
  for (;;) {
    flow::Amount checksum = 0;
    const double s = run_variant(graphs, kind, null_variant, reps, checksum);
    if (s >= target_s) return reps;
    reps = s > 0.0 ? std::max(reps + 1,
                              static_cast<int>(1.2 * reps * target_s / s))
                   : reps * 2;
  }
}

const char* kind_name(flow::SolverKind kind) {
  switch (kind) {
    case flow::SolverKind::kBellmanFord: return "bellman-ford";
    case flow::SolverKind::kNetworkSimplex: return "network-simplex";
  }
  return "?";
}

}  // namespace

int main() {
  const bool short_mode = [] {
    const char* v = std::getenv("MUSK_BENCH_SHORT");
    return v != nullptr && *v != '\0' && *v != '0';
  }();

  std::printf("deadline_overhead: cancel-point cost on the solve path%s\n\n",
              short_mode ? " (short mode)" : "");
  util::BenchReport bench("deadline_overhead");
  bench.config("short_mode", short_mode);
  bench.config("gate_ratio", 1.03);

  // A spread of seeded games so no single topology dominates; solved
  // repeatedly, the workload is iteration-heavy (each iteration = one
  // cancel point) without being cache-cold.
  std::vector<flow::Graph> graphs;
  const int num_graphs = short_mode ? 8 : 16;
  for (int i = 0; i < num_graphs; ++i) {
    util::Rng rng(static_cast<std::uint64_t>(100 + i));
    graphs.push_back(random_graph(60, 220, rng));
  }
  const double slice_target_s = short_mode ? 0.010 : 0.025;
  const int slices = short_mode ? 21 : 41;
  bench.config("slice_target_s", slice_target_s);
  bench.config("slices", static_cast<std::int64_t>(slices));

  const flow::SolverKind kinds[] = {
      flow::SolverKind::kBellmanFord,
      flow::SolverKind::kNetworkSimplex,
  };
  constexpr int kKinds = 2;

  util::CancelToken armed;
  armed.arm(util::Deadline::never());
  util::CancelToken timed;
  timed.arm(util::Deadline::after(std::chrono::milliseconds(3600 * 1000)));
  const Variant variants[] = {
      {"null", nullptr},
      {"armed", &armed},
      {"timed", &timed},
  };

  int reps[kKinds];
  for (int k = 0; k < kKinds; ++k) {
    // Warmup sizes the workspace and faults the graphs in.
    flow::Amount checksum = 0;
    run_variant(graphs, kinds[k], variants[0], 1, checksum);
    reps[k] = calibrate_reps(graphs, kinds[k], variants[0], slice_target_s);
  }

  // seconds[k][v]: one entry per slice. slice_ratio: the gated paired
  // armed/null ratio of each slice, both kinds summed.
  std::vector<double> seconds[kKinds][3];
  std::vector<double> slice_ratio;
  for (int slice = 0; slice < slices; ++slice) {
    double null_s = 0.0;
    double armed_s = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      flow::Amount sums[3] = {0, 0, 0};
      for (int i = 0; i < 3; ++i) {
        // Alternate the order so neither variant always runs first.
        const int v = slice % 2 == 0 ? i : 2 - i;
        seconds[k][v].push_back(
            run_variant(graphs, kinds[k], variants[v], reps[k], sums[v]));
      }
      MUSK_ASSERT_MSG(sums[0] == sums[1] && sums[0] == sums[2],
                      "cancel-token variants diverged");
      null_s += seconds[k][0].back();
      armed_s += seconds[k][1].back();
    }
    slice_ratio.push_back(armed_s / null_s);
  }

  util::Table table({"solver", "solves/run", "null s", "armed s", "timed s",
                     "armed/null", "timed/null"});
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> armed_ratio;
    std::vector<double> timed_ratio;
    for (int slice = 0; slice < slices; ++slice) {
      const auto i = static_cast<std::size_t>(slice);
      armed_ratio.push_back(seconds[k][1][i] / seconds[k][0][i]);
      timed_ratio.push_back(seconds[k][2][i] / seconds[k][0][i]);
    }
    const std::uint64_t solves = static_cast<std::uint64_t>(reps[k]) *
                                 static_cast<std::uint64_t>(graphs.size());
    double median_s[3];
    for (int v = 0; v < 3; ++v) {
      median_s[v] = util::median(seconds[k][v]);
      bench.add_seconds(
          util::format("%s/%s", kind_name(kinds[k]), variants[v].label),
          median_s[v], solves);
    }
    table.add_row({kind_name(kinds[k]), std::to_string(solves),
                   util::fmt_double(median_s[0], 4),
                   util::fmt_double(median_s[1], 4),
                   util::fmt_double(median_s[2], 4),
                   util::format("%.3fx", util::median(armed_ratio)),
                   util::format("%.3fx", util::median(timed_ratio))});
  }
  table.print();
  std::printf("(medians over %d slices of >= %.0f ms per run)\n", slices,
              1e3 * slice_target_s);

  const double ratio = util::median(slice_ratio);
  std::printf("\nmedian paired armed/null ratio: %.4fx (gate < 1.03x)\n",
              ratio);
  bench.config("armed_over_null", ratio);
  // The §14 gate: an armed-but-idle token must be within measurement
  // noise of running with deadlines disabled.
  MUSK_ASSERT_MSG(ratio < 1.03,
                  "cancel-point overhead exceeds the 1.03x budget");
  bench.write();
  return 0;
}
