// deadline_overhead — the cancel-point tax on the solve path, measured.
//
// Every solver iteration now passes MUSK_CANCEL_POINT: one branch when
// no token is installed, one relaxed atomic load (plus a steady-clock
// read while a deadline is armed) when one is. DESIGN.md §14 promises
// the disabled path is noise next to the O(m) residual rebuild each
// iteration already performs; this bench is the gate on that promise.
//
// Three variants run the identical solve workload per solver kind:
//
//   null    solve_max_welfare(..., cancel=nullptr)  — deadlines off
//   armed   an armed token with Deadline::never()   — flag checked
//   timed   an armed token with a far-future expiry — flag + clock
//
// Measurement is sliced: each slice times one short pass per variant
// back to back, and the reported time is the fastest slice. Contention
// noise is strictly additive and bursty, so a 3%-wide gate needs minima
// taken over many small windows — a burst then has to cover every
// window of one variant while sparing the other to skew the ratio. The
// gate compares the aggregate armed/null ratio across all kinds against
// 1.03x. Results are cross-checked bit-identical between variants, and
// the per-kind table plus BENCH_deadline_overhead.json record details.
//
// Set MUSK_BENCH_SHORT=1 for the CI smoke variant (fewer reps/trials).
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
  const int reps_per_slice = short_mode ? 1 : 2;
  const int slices = short_mode ? 32 : 80;

  const flow::SolverKind kinds[] = {
      flow::SolverKind::kBellmanFord,
      flow::SolverKind::kNetworkSimplex,
  };

  util::CancelToken armed;
  armed.arm(util::Deadline::never());
  util::CancelToken timed;
  timed.arm(util::Deadline::after(std::chrono::milliseconds(3600 * 1000)));
  const Variant variants[] = {
      {"null", nullptr},
      {"armed", &armed},
      {"timed", &timed},
  };

  util::Table table({"solver", "null s", "armed s", "timed s", "armed/null",
                     "timed/null"});
  double total_null = 0.0;
  double total_armed = 0.0;
  for (const flow::SolverKind kind : kinds) {
    // Warmup sizes the workspace and faults the graphs in.
    flow::Amount checksum = 0;
    run_variant(graphs, kind, variants[0], 1, checksum);

    double best[3] = {0.0, 0.0, 0.0};
    flow::Amount sums[3] = {0, 0, 0};
    for (int slice = 0; slice < slices; ++slice) {
      for (int v = 0; v < 3; ++v) {
        flow::Amount sum = 0;
        const double s =
            run_variant(graphs, kind, variants[v], reps_per_slice, sum);
        if (slice == 0 || s < best[v]) best[v] = s;
        sums[v] = sum;
      }
    }
    MUSK_ASSERT_MSG(sums[0] == sums[1] && sums[0] == sums[2],
                    "cancel-token variants diverged");
    total_null += best[0];
    total_armed += best[1];

    const std::uint64_t solves = static_cast<std::uint64_t>(reps_per_slice) *
                                 static_cast<std::uint64_t>(graphs.size());
    bench.add_seconds(util::format("%s/null", kind_name(kind)), best[0],
                      solves);
    bench.add_seconds(util::format("%s/armed", kind_name(kind)), best[1],
                      solves);
    bench.add_seconds(util::format("%s/timed", kind_name(kind)), best[2],
                      solves);
    table.add_row({kind_name(kind), util::fmt_double(best[0], 4),
                   util::fmt_double(best[1], 4), util::fmt_double(best[2], 4),
                   util::format("%.3fx", best[1] / best[0]),
                   util::format("%.3fx", best[2] / best[0])});
  }
  table.print();

  const double ratio = total_armed / total_null;
  std::printf("\naggregate armed/null ratio: %.4fx (gate < 1.03x)\n", ratio);
  bench.config("armed_over_null", ratio);
  // The §14 gate: an armed-but-idle token must be within measurement
  // noise of running with deadlines disabled.
  MUSK_ASSERT_MSG(ratio < 1.03,
                  "cancel-point overhead exceeds the 1.03x budget");
  bench.write();
  return 0;
}
