// solve_reuse — the zero-rebuild solve path, measured.
//
// (a) M2 VCG prices, fresh vs reused, on STEADY-STATE games: each game
//     is extracted from a network that was first rebalanced to
//     quiescence, which is the topology-stable, bids-only-varying regime
//     the SolveContext layer targets (the epoch service re-clears such
//     games thousands of times). The pre-refactor path rebuilt G_{-v}
//     from scratch for every buyer (build_graph_without + a fresh solver
//     workspace per solve); the reuse path is M2Vcg::vcg_prices itself
//     on one SolveContext with no executor attached, which rebinds the
//     game graph in place and runs every exclusion as an O(deg) capacity
//     mask (flow::mask_node) on a copy of the bound graph. Both run
//     single-threaded on identical games and must produce bit-identical
//     prices. The reuse path runs once more on a 4-thread
//     svc::ParallelExecutor, which deals the buyers to one task per
//     thread: its prices must be bit-identical too, and its time is
//     reported against one thread (no gate: runner core counts vary).
// (b) 1000 quiescent epochs through svc::RebalanceService: after the
//     network converges, every clear must rebind in place — zero graph
//     rebuilds, near-zero allocations.
//
// Reported counts come from a global operator new hook, so "allocs"
// is every heap allocation the process makes during the timed region.
// Set MUSK_BENCH_SHORT=1 for the CI smoke variant (smaller sizes, fewer
// epochs).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/m2_vcg.hpp"
#include "core/m3_double_auction.hpp"
#include "flow/solver.hpp"
#include "pcn/rebalancer.hpp"
#include "sim/engine.hpp"
#include "svc/executor.hpp"
#include "svc/service.hpp"
#include "util/assert.hpp"
#include "util/bench_json.hpp"
#include "util/table.hpp"

namespace {

std::atomic<long long> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace musketeer;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A steady-state game: skew a scale-free network, rebalance with M3
/// until an epoch executes nothing, then extract. The result has real
/// buyers and sellers but a settled (small/empty) optimum — the game
/// shape every epoch after convergence re-clears with fresh bids.
core::Game settled_game(flow::NodeId n, std::uint64_t seed) {
  sim::SimulationConfig config;
  config.num_nodes = n;
  config.initial_skew = 0.4;
  config.skew_fraction = 0.5;
  config.seed = seed;
  util::Rng rng(seed);
  pcn::Network network = sim::build_network(config, rng);
  const core::M3DoubleAuction m3;
  sim::MechanismBackend backend(m3);
  for (int i = 0; i < 32; ++i) {
    if (backend.rebalance(network, config.policy).cycles_executed == 0) break;
  }
  return pcn::extract_game(network, config.policy).game;
}

std::vector<core::PlayerId> buyer_set(const core::Game& game,
                                      const core::BidVector& bids) {
  std::vector<bool> is_buyer(static_cast<std::size_t>(game.num_players()),
                             false);
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    if (bids.head[static_cast<std::size_t>(e)] > 0.0) {
      is_buyer[static_cast<std::size_t>(game.edge(e).to)] = true;
    }
  }
  std::vector<core::PlayerId> buyers;
  for (core::PlayerId v = 0; v < game.num_players(); ++v) {
    if (is_buyer[static_cast<std::size_t>(v)]) buyers.push_back(v);
  }
  return buyers;
}

struct SweepResult {
  double seconds = 0.0;
  long long allocs = 0;
  long long solves = 0;
  double checksum = 0.0;       // sum of all prices (dead-code sink)
  std::vector<double> prices;  // cross-checked between the two paths
};

/// The historic path: every exclusion re-solve constructs G_{-v} and a
/// fresh workspace (the legacy solve_max_welfare allocates its scratch
/// per call, exactly as the pre-SolveContext code did), priced by M2's
/// welfare difference p(v) = SW(b_{-v}, f_{-v}) - SW(b_{-v}, f).
SweepResult sweep_fresh(const core::Game& game, const core::BidVector& bids,
                        const std::vector<core::PlayerId>& buyers,
                        flow::SolverKind kind, int reps) {
  const auto welfare_without = [&](core::PlayerId v,
                                   const flow::Circulation& flow) {
    return game.social_welfare(bids, flow) - game.player_value(v, bids, flow);
  };
  SweepResult r;
  const auto t0 = std::chrono::steady_clock::now();
  const long long a0 = g_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < reps; ++rep) {
    const flow::Circulation f =
        flow::solve_max_welfare(game.build_graph(bids), kind);
    ++r.solves;
    r.prices.assign(static_cast<std::size_t>(game.num_players()), 0.0);
    for (const core::PlayerId v : buyers) {
      const flow::Circulation f_minus =
          flow::solve_max_welfare(game.build_graph_without(bids, v), kind);
      r.prices[static_cast<std::size_t>(v)] =
          welfare_without(v, f_minus) - welfare_without(v, f);
      ++r.solves;
    }
    for (const double p : r.prices) r.checksum += p;
  }
  r.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  r.seconds = seconds_since(t0);
  return r;
}

/// The zero-rebuild path: M2's own pricing on one reused context, its
/// exclusion solves run on `executor` (nullptr: in turn on this thread).
SweepResult sweep_reuse(const core::Game& game, const core::BidVector& bids,
                        const std::vector<core::PlayerId>& buyers,
                        flow::SolverKind kind, flow::Executor* executor,
                        int reps) {
  const core::M2Vcg m2(kind);
  flow::SolveContext ctx;
  ctx.set_executor(executor);
  SweepResult r;
  const auto t0 = std::chrono::steady_clock::now();
  const long long a0 = g_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < reps; ++rep) {
    r.prices = m2.vcg_prices(ctx, game, bids);
    r.solves += 1 + static_cast<long long>(buyers.size());
    for (const double p : r.prices) r.checksum += p;
  }
  r.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  r.seconds = seconds_since(t0);
  return r;
}

}  // namespace

int main() {
  const bool short_mode = [] {
    const char* v = std::getenv("MUSK_BENCH_SHORT");
    return v != nullptr && *v != '\0' && *v != '0';
  }();

  std::printf("solve_reuse: fresh-build vs graph and workspace reuse%s\n\n",
              short_mode ? " (short mode)" : "");
  util::BenchReport bench("solve_reuse");
  bench.config("short_mode", short_mode);

  // ------------------------------- (a) M2 VCG prices
  std::printf("(a) M2 VCG prices on steady-state games, single-threaded\n"
              "and on 4 threads, bit-identical prices checked\n\n");
  util::Table table({"n", "edges", "buyers", "solves", "fresh s", "reuse s",
                     "speedup", "fresh allocs", "reuse allocs",
                     "reuse solves/s", "4-thread s", "4t vs 1t"});
  svc::ParallelExecutor pool(4);
  std::vector<flow::NodeId> sizes{50, 200, 800};
  if (short_mode) sizes = {50, 200};
  double speedup_200 = 0.0;
  for (const flow::NodeId n : sizes) {
    const core::Game game = settled_game(n, 5);
    core::BidVector bids = game.truthful_bids();
    for (double& t : bids.tail) t = 0.0;  // M2's buyers-only profile
    const std::vector<core::PlayerId> buyers = buyer_set(game, bids);
    const int reps = short_mode ? 6 : (n <= 50 ? 40 : n <= 200 ? 20 : 4);
    const auto kind = flow::SolverKind::kNetworkSimplex;  // M2's default

    const SweepResult fresh = sweep_fresh(game, bids, buyers, kind, reps);
    const SweepResult reuse =
        sweep_reuse(game, bids, buyers, kind, nullptr, reps);
    const SweepResult pooled =
        sweep_reuse(game, bids, buyers, kind, &pool, reps);
    MUSK_ASSERT_MSG(
        fresh.prices == reuse.prices && fresh.checksum == reuse.checksum,
        "M2's prices diverged from the fresh path's");
    MUSK_ASSERT_MSG(
        fresh.prices == pooled.prices && fresh.checksum == pooled.checksum,
        "M2's prices on 4 threads diverged from the fresh path's");
    MUSK_ASSERT(fresh.solves == reuse.solves);
    const double speedup = fresh.seconds / reuse.seconds;
    if (n == 200) speedup_200 = speedup;

    bench.add_seconds(util::format("vcg_sweep_fresh/n%d", n), fresh.seconds,
                      static_cast<std::uint64_t>(fresh.solves));
    bench.add_seconds(util::format("vcg_sweep_reuse/n%d", n), reuse.seconds,
                      static_cast<std::uint64_t>(reuse.solves));
    bench.add_seconds(util::format("vcg_sweep_reuse_4t/n%d", n),
                      pooled.seconds,
                      static_cast<std::uint64_t>(pooled.solves));
    table.add_row(
        {util::fmt_int(n), util::fmt_int(game.num_edges()),
         util::fmt_int(static_cast<long long>(buyers.size())),
         util::fmt_int(fresh.solves), util::fmt_double(fresh.seconds, 3),
         util::fmt_double(reuse.seconds, 3),
         util::format("%.2fx", speedup), util::fmt_int(fresh.allocs),
         util::fmt_int(reuse.allocs),
         util::fmt_double(static_cast<double>(reuse.solves) / reuse.seconds,
                          0),
         util::fmt_double(pooled.seconds, 3),
         util::format("%.2fx", reuse.seconds / pooled.seconds)});
  }
  table.print();
  util::maybe_export_csv(table, "solve_reuse_vcg");
  // The acceptance gate: M2's pricing must at least halve the fresh
  // n=200 sweep.
  MUSK_ASSERT_MSG(speedup_200 >= 2.0,
                  "M2's reuse path must be >= 2x the fresh path at n=200");

  // ------------------------------- (b) epoch-service clearing
  const int epochs = short_mode ? 100 : 1000;
  std::printf("\n(b) %d quiescent epochs through svc::RebalanceService "
              "(M3, no payment traffic)\n\n", epochs);
  sim::SimulationConfig sim_config;
  sim_config.num_nodes = 64;
  sim_config.initial_skew = 0.4;
  sim_config.skew_fraction = 0.5;
  sim_config.seed = 99;
  util::Rng net_rng(sim_config.seed);
  pcn::Network network = sim::build_network(sim_config, net_rng);
  const core::M3DoubleAuction mechanism;
  svc::ServiceConfig service_config;
  service_config.policy = sim_config.policy;
  svc::RebalanceService service(network, mechanism, service_config);

  // Warm up until the network is quiescent so the timed region measures
  // the steady-state clearing path only.
  int warmup = 0;
  while (service.run_epoch().cycles_executed != 0) ++warmup;

  long long rebuilds = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const long long a0 = g_allocs.load(std::memory_order_relaxed);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rebuilds += service.run_epoch().graph_rebuilds;
  }
  const long long allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  const double secs = seconds_since(t0);

  bench.add_seconds("service_epoch", secs,
                    static_cast<std::uint64_t>(epochs));
  util::Table svc_table({"epochs", "warmup", "rebuilds", "epochs/s",
                         "allocs/epoch"});
  svc_table.add_row(
      {util::fmt_int(epochs), util::fmt_int(warmup), util::fmt_int(rebuilds),
       util::fmt_double(static_cast<double>(epochs) / secs, 0),
       util::fmt_double(static_cast<double>(allocs) / epochs, 1)});
  svc_table.print();
  util::maybe_export_csv(svc_table, "solve_reuse_service");

  // The acceptance gate: steady-state clears perform no graph rebuilds.
  MUSK_ASSERT_MSG(rebuilds == 0,
                  "steady-state service epochs must not rebuild the graph");
  return 0;
}
