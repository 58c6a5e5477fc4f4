// E5 — solver scalability (google-benchmark): welfare-maximizing
// circulation, cycle decomposition, and the full M3 pipeline vs network
// size on Barabási–Albert graphs.
#include <benchmark/benchmark.h>

#include "core/m3_double_auction.hpp"
#include "flow/decompose.hpp"
#include "flow/solver.hpp"
#include "gen/game_gen.hpp"
#include "util/bench_json.hpp"

using namespace musketeer;

namespace {

core::Game make_game(flow::NodeId n) {
  util::Rng rng(static_cast<std::uint64_t>(n) * 7919 + 13);
  gen::GameConfig config;
  config.depleted_share = 0.3;
  return gen::random_ba_game(n, 2, config, rng);
}

void BM_SolveCirculationBellmanFord(benchmark::State& state) {
  const core::Game game = make_game(static_cast<flow::NodeId>(state.range(0)));
  const flow::Graph g = game.build_graph(game.truthful_bids());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::solve_max_welfare(g, flow::SolverKind::kBellmanFord));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveCirculationBellmanFord)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_SolveCirculationNetworkSimplex(benchmark::State& state) {
  const core::Game game = make_game(static_cast<flow::NodeId>(state.range(0)));
  const flow::Graph g = game.build_graph(game.truthful_bids());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::solve_max_welfare(g, flow::SolverKind::kNetworkSimplex));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveCirculationNetworkSimplex)
    ->RangeMultiplier(2)
    ->Range(32, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_CycleDecomposition(benchmark::State& state) {
  const core::Game game = make_game(static_cast<flow::NodeId>(state.range(0)));
  const flow::Graph g = game.build_graph(game.truthful_bids());
  const flow::Circulation f = flow::solve_max_welfare(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::decompose_sign_consistent(g, f));
  }
}
BENCHMARK(BM_CycleDecomposition)
    ->RangeMultiplier(2)
    ->Range(32, 512)
    ->Unit(benchmark::kMicrosecond);

void BM_FullM3Pipeline(benchmark::State& state) {
  const core::Game game = make_game(static_cast<flow::NodeId>(state.range(0)));
  const core::M3DoubleAuction m3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m3.run_truthful(game));
  }
}
BENCHMARK(BM_FullM3Pipeline)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every per-iteration run collected into
/// the shared BENCH_<name>.json format (ns/op from accumulated real
/// time, n = iterations; aggregates skipped).
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollector(util::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.iterations <= 0) continue;
      report_.add(run.benchmark_name(),
                  run.real_accumulated_time * 1e9 /
                      static_cast<double>(run.iterations),
                  static_cast<std::uint64_t>(run.iterations));
    }
  }

 private:
  util::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  util::BenchReport bench("e5_scalability");
  JsonCollector reporter(bench);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
