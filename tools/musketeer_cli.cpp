// musketeer — command-line front end to the rebalancing mechanisms.
//
//   musketeer run <mechanism> <game-file> [options]
//   musketeer gen <players> <attach> <seed> [game-file]
//   musketeer check <game-file>
//
// Mechanisms: m1, m2, m2-minfee, m3, m4, hideseek, local, none.
// Options:
//   --delay <d>     M4 delay factor (default 1.0)
//   --fee <p>       M1 fixed fee rate / local per-hop fee (default 0.001)
//   --k <k>         M1 buyer-rate multiplier (default 3)
//   --floor <f>     M2-minfee seller floor (default 0.001)
//
// `sim` additionally accepts:
//   --metrics-out <path>   dump per-epoch metrics (.json → JSON, else CSV)
//   --backend <b>          inproc (historic inline call) or service
//                          (route every epoch through svc::RebalanceService)
//   --threads <n>          epoch-solve concurrency: M2's VCG exclusion
//                          solves run across n threads (0 = hardware
//                          concurrency, 1 = in turn on one thread;
//                          results are bit-identical at any value)
//
// Exit status: 0 on success, 1 on usage errors, 2 on invalid input.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/equilibrium.hpp"
#include "core/io.hpp"
#include "core/mechanism_factory.hpp"
#include "gen/game_gen.hpp"
#include "sim/engine.hpp"
#include "sim/metrics_io.hpp"
#include "sim/strategies.hpp"
#include "svc/executor.hpp"
#include "svc/sim_backend.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: musketeer run <m1|m2|m2-minfee|m3|m4|hideseek|local|"
               "none> <game-file> [--delay d] [--fee p] [--k k] [--floor f]\n"
               "       musketeer eq <mechanism> <game-file> [options]\n"
               "       musketeer gen <players> <attach> <seed> [game-file]\n"
               "       musketeer check <game-file>\n"
               "       musketeer sim <mechanism> <players> <epochs> "
               "<payments-per-epoch> <seed> [options]\n"
               "                     [--metrics-out path] "
               "[--backend inproc|service] [--threads n]\n");
  return 1;
}

/// Mechanism knobs plus the sim-only flags; non-sim commands reject the
/// sim-only ones via `allow_sim_flags`.
struct CliOptions {
  core::MechanismOptions mechanism;
  std::string metrics_out;
  std::string backend = "inproc";
  /// Epoch-solve concurrency (0 = hardware, 1 = inline on one thread).
  int threads = 1;
};

CliOptions parse_options(int argc, char** argv, int first,
                         bool allow_sim_flags = false) {
  CliOptions options;
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--delay") {
      options.mechanism.delay = std::stod(value);
    } else if (flag == "--fee") {
      options.mechanism.fee = std::stod(value);
    } else if (flag == "--k") {
      options.mechanism.k = std::stod(value);
    } else if (flag == "--floor") {
      options.mechanism.floor = std::stod(value);
    } else if (allow_sim_flags && flag == "--metrics-out") {
      options.metrics_out = value;
    } else if (allow_sim_flags && flag == "--backend") {
      options.backend = value;
    } else if (allow_sim_flags && flag == "--threads") {
      options.threads = static_cast<int>(std::stol(value));
    } else {
      throw std::runtime_error("unknown option: " + flag);
    }
  }
  return options;
}

int cmd_run(int argc, char** argv) {
  if (argc < 4) return usage();
  const CliOptions options = parse_options(argc, argv, 4);
  const auto mechanism = core::make_mechanism(argv[2], options.mechanism);
  if (!mechanism) return usage();
  const core::Game game = core::load_game(argv[3]);
  std::printf("game: %d players, %d edges\n", game.num_players(),
              game.num_edges());
  const core::Outcome outcome = mechanism->run_truthful(game);
  std::printf("mechanism: %s\n%s",
              std::string(mechanism->name()).c_str(),
              core::describe_outcome(game, outcome).c_str());
  return 0;
}

int cmd_eq(int argc, char** argv) {
  if (argc < 4) return usage();
  const CliOptions options = parse_options(argc, argv, 4);
  const auto mechanism = core::make_mechanism(argv[2], options.mechanism);
  if (!mechanism) return usage();
  const core::Game game = core::load_game(argv[3]);
  const core::EquilibriumResult result =
      core::best_response_dynamics(*mechanism, game);
  std::printf("best-response dynamics under %s: %s after %d pass(es)\n",
              std::string(mechanism->name()).c_str(),
              result.converged ? "converged" : "DID NOT CONVERGE",
              result.passes);
  std::printf("equilibrium welfare %.6f vs truthful %.6f (ratio %.3f)\n",
              result.equilibrium_welfare, result.truthful_welfare,
              result.welfare_ratio());
  std::printf("per-player shading factors:");
  for (double s : result.strategy) std::printf(" %.2f", s);
  std::printf("\n");
  return 0;
}

int cmd_sim(int argc, char** argv) {
  if (argc < 7) return usage();
  sim::SimulationConfig config;
  const std::string mech_name = argv[2];
  config.num_nodes = static_cast<flow::NodeId>(std::stol(argv[3]));
  config.epochs = static_cast<int>(std::stol(argv[4]));
  config.payments_per_epoch = static_cast<int>(std::stol(argv[5]));
  config.seed = static_cast<std::uint64_t>(std::stoull(argv[6]));
  const CliOptions options =
      parse_options(argc, argv, 7, /*allow_sim_flags=*/true);

  std::unique_ptr<core::Mechanism> mechanism;
  if (mech_name != "none") {
    mechanism = core::make_mechanism(mech_name, options.mechanism);
    if (!mechanism) return usage();
  }

  sim::SimulationResult result;
  if (options.backend == "service") {
    if (!mechanism) {
      throw std::runtime_error("--backend service needs a mechanism");
    }
    svc::ServiceBackend backend(*mechanism, 1024, options.threads);
    result = sim::run_simulation(config, &backend, nullptr);
  } else if (options.backend == "inproc") {
    if (mechanism && options.threads != 1) {
      svc::ParallelExecutor executor(options.threads);
      sim::MechanismBackend backend(*mechanism, &executor);
      result = sim::run_simulation(config, &backend, nullptr);
    } else {
      result = sim::run_simulation(config, mechanism.get());
    }
  } else {
    throw std::runtime_error("unknown backend: " + options.backend);
  }

  util::Table table({"epoch", "success%", "depleted%", "rebalanced"});
  for (const sim::EpochMetrics& m : result.epochs) {
    table.add_row({util::fmt_int(m.epoch),
                   util::fmt_double(100.0 * m.success_rate(), 1),
                   util::fmt_double(100.0 * m.depleted_fraction, 1),
                   util::fmt_int(m.rebalanced_volume)});
  }
  table.print();
  std::printf("overall success: %.1f%%, volume delivered: %lld, "
              "rebalanced: %lld\n",
              100.0 * result.overall_success_rate(),
              static_cast<long long>(result.total_volume_succeeded()),
              static_cast<long long>(result.total_rebalanced_volume()));
  if (!options.metrics_out.empty()) {
    sim::save_metrics(result, options.metrics_out);
    std::printf("metrics written to %s\n", options.metrics_out.c_str());
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto players = static_cast<flow::NodeId>(std::stol(argv[2]));
  const int attach = static_cast<int>(std::stol(argv[3]));
  util::Rng rng(static_cast<std::uint64_t>(std::stoull(argv[4])));
  gen::GameConfig config;
  const core::Game game = gen::random_ba_game(players, attach, config, rng);
  const std::string text = core::to_text(game);
  if (argc >= 6) {
    core::save_game(game, argv[5]);
    std::printf("wrote %d players, %d edges to %s\n", game.num_players(),
                game.num_edges(), argv[5]);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

int cmd_check(int argc, char** argv) {
  if (argc < 3) return usage();
  const core::Game game = core::load_game(argv[2]);
  int depleted = 0;
  flow::Amount capacity = 0;
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    depleted += game.is_depleted(e);
    capacity += game.edge(e).capacity;
  }
  std::printf("valid musketeer-game: %d players, %d edges "
              "(%d depleted), total capacity %lld\n",
              game.num_players(), game.num_edges(), depleted,
              static_cast<long long>(capacity));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    const std::string command = argv[1];
    if (command == "run") return cmd_run(argc, argv);
    if (command == "eq") return cmd_eq(argc, argv);
    if (command == "sim") return cmd_sim(argc, argv);
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "check") return cmd_check(argc, argv);
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
