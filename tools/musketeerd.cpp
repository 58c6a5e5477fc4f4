// musketeerd — the epoch-batched rebalancing daemon.
//
//   musketeerd [options]
//
//   --listen <ep>      tcp:<port> (loopback) or unix:<path>  [tcp:7740]
//   --mechanism <m>    m1|m2|m2-minfee|m3|m4|hideseek|local|none  [m3]
//   --nodes <n>        synthetic network size                [50]
//   --seed <s>         network build seed                    [1]
//   --skew <x>         initial channel skew in (0, 0.5]      [0.4]
//   --epoch-ms <ms>    epoch period                          [1000]
//   --epochs <n>       stop after n epochs (0 = run forever) [0]
//   --queue-cap <n>    intake queue capacity (players)       [1024]
//   --threads <n>      epoch-solve concurrency: M2's VCG exclusion
//                      solves run across n threads, forked per batch
//                      (0 = hardware concurrency, 1 = in turn on the
//                      clearing thread; outcomes are bit-identical at
//                      any value)                             [0]
//   --journal <path>   crash-safe epoch journal (WAL); on restart the
//                      daemon recovers from the newest valid snapshot
//                      (if any) plus the journal tail — falling back to
//                      a full replay against the genesis network (same
//                      --nodes/--seed/--skew) — and resumes at the
//                      recovered epoch                       [off]
//   --snapshot-every <n>  checkpoint cadence: every n settled epochs,
//                      start a new journal segment, snapshot the
//                      recovery state and compact journal segments the
//                      snapshot covers, bounding both the journal's
//                      disk footprint and restart time by the tail
//                      length (0 = journal-only)             [0]
//   --journal-keep <n> validated snapshots to retain; older ones are
//                      deleted after each successful snapshot [2]
//   --deadline-ms <ms> per-epoch clearing deadline: a solve that runs
//                      past it is cooperatively cancelled and the epoch
//                      retries down the degradation ladder, finally
//                      journaling ABORTED; also turns on admission
//                      control (0 = off)                     [0]
//   --degrade <list>   comma-separated degradation ladder of mechanism
//                      names tried after a timeout           [m1]
//   --trace-out <path> collect epoch trace spans while running and, on
//                      shutdown, write them as Chrome trace_event JSON
//                      (load at chrome://tracing)            [off]
//
// The daemon builds the same Barabási–Albert network the simulator
// uses (so a daemon run is comparable to `musketeer sim`), then serves
// bid intake over the wire protocol and clears one auction per epoch,
// printing a per-epoch summary line. SIGINT/SIGTERM stop it cleanly.
//
// Exit status: 0 on clean shutdown, 1 on usage errors, 2 on runtime
// errors (bind failure, a failed epoch such as a journal fsync error,
// etc).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/mechanism_factory.hpp"
#include "daemon_flags.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "svc/daemon.hpp"
#include "util/rng.hpp"

using namespace musketeer;

namespace {

std::sig_atomic_t volatile g_signal = 0;

void handle_signal(int sig) { g_signal = sig; }

int usage() {
  std::fprintf(stderr,
               "usage: musketeerd [--listen tcp:PORT|unix:PATH] "
               "[--mechanism m] [--nodes n] [--seed s] [--skew x]\n"
               "                  [--epoch-ms ms] [--epochs n] "
               "[--queue-cap n] [--threads n] [--journal path] "
               "[--trace-out path]\n"
               "                  [--deadline-ms ms] [--degrade m,m,...]\n"
               "                  [--snapshot-every n] [--journal-keep n]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen = "tcp:7740";
  std::string mechanism_name = "m3";
  std::string trace_out;
  sim::SimulationConfig sim_config;
  sim_config.initial_skew = 0.4;
  svc::DaemonConfig config;
  config.service.epoch_period = std::chrono::milliseconds(1000);

  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (tools::parse_daemon_flag(flag, value, mechanism_name, sim_config,
                                   config.service)) {
        continue;
      }
      if (flag == "--listen") {
        listen = value;
      } else if (flag == "--skew") {
        sim_config.initial_skew = std::stod(value);
      } else if (flag == "--epochs") {
        config.service.max_epochs = static_cast<int>(std::stol(value));
      } else if (flag == "--journal") {
        config.journal_path = value;
      } else if (flag == "--snapshot-every") {
        config.service.snapshot_every = static_cast<int>(std::stol(value));
      } else if (flag == "--journal-keep") {
        config.keep_snapshots = static_cast<int>(std::stol(value));
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
        return usage();
      }
    }
    if ((argc - 1) % 2 != 0) return usage();

    auto mechanism =
        core::make_mechanism(mechanism_name, core::MechanismOptions{});
    if (!mechanism) {
      std::fprintf(stderr, "unknown mechanism: %s\n",
                   mechanism_name.c_str());
      return usage();
    }
    config.server.listen = listen;

    util::Rng rng(sim_config.seed);
    pcn::Network network = sim::build_network(sim_config, rng);

    if (!trace_out.empty()) obs::trace::start();

    svc::Daemon daemon(std::move(network), std::move(mechanism), config);
    if (!config.journal_path.empty()) {
      const svc::RecoveryReport& rec = daemon.recovery();
      if (rec.from_snapshot) {
        std::printf("musketeerd: journal %s: restored snapshot at epoch %d"
                    " (%llu segment(s) replayed%s), %d epoch(s) replayed"
                    "%s, %d rolled back, %d aborted, %d degraded rung(s); "
                    "resuming at epoch %d\n",
                    config.journal_path.c_str(), rec.snapshot_epoch,
                    static_cast<unsigned long long>(rec.segments_replayed),
                    rec.snapshots_discarded > 0 ? ", older snapshot(s) "
                                                  "discarded as invalid"
                                                : "",
                    rec.epochs_settled,
                    rec.applied_inflight ? " (1 in-flight outcome applied)"
                                         : "",
                    rec.rolled_back, rec.aborted_epochs, rec.degraded_epochs,
                    rec.next_epoch);
      } else {
        std::printf("musketeerd: journal %s: %d epoch(s) replayed"
                    "%s, %d rolled back, %d aborted, %d degraded rung(s); "
                    "resuming at epoch %d\n",
                    config.journal_path.c_str(), rec.epochs_settled,
                    rec.applied_inflight ? " (1 in-flight outcome applied)"
                                         : "",
                    rec.rolled_back, rec.aborted_epochs, rec.degraded_epochs,
                    rec.next_epoch);
      }
    }
    daemon.service().on_epoch([](const svc::EpochReport& report) {
      std::printf("epoch %d: bids %zu, edges %d, cycles %d, volume %lld, "
                  "fees %.6f, clear %.3f ms, state %016llx%s\n",
                  report.epoch, report.bids_applied, report.game_edges,
                  report.cycles_executed,
                  static_cast<long long>(report.rebalanced_volume),
                  report.fees_paid, 1e3 * report.clear_seconds,
                  static_cast<unsigned long long>(report.network_digest),
                  report.degradation_level > 0 ? " [degraded]" : "");
      std::fflush(stdout);
    });
    daemon.start();
    std::printf("musketeerd: %s on %s, %d nodes, epoch %lld ms%s\n",
                mechanism_name.c_str(), daemon.endpoint().c_str(),
                sim_config.num_nodes,
                static_cast<long long>(config.service.epoch_period.count()),
                config.service.max_epochs > 0 ? "" : " (run until signal)");
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    // Wait for the epoch budget or a signal; wait_epochs is a cv wait,
    // re-armed briefly so signals are noticed promptly.
    const int target = config.service.max_epochs;
    while (g_signal == 0) {
      if (daemon.service().wait_epochs(
              target > 0 ? target : daemon.service().epochs_cleared() + 1000,
              std::chrono::milliseconds(200)) &&
          target > 0) {
        break;
      }
    }
    daemon.stop();
    if (!trace_out.empty()) {
      obs::trace::stop();
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "musketeerd: cannot write trace file %s\n",
                     trace_out.c_str());
        return 2;
      }
      const std::size_t events = obs::trace::write_chrome_json(out);
      out.flush();
      std::printf("musketeerd: wrote %zu trace event(s) to %s"
                  " (%llu dropped); load at chrome://tracing\n",
                  events, trace_out.c_str(),
                  static_cast<unsigned long long>(obs::trace::dropped()));
    }
    const auto counters = daemon.service().intake_counters();
    std::printf("musketeerd: stopped after %d epoch(s); intake: "
                "%llu accepted, %llu replaced, %llu rejected-full, "
                "%llu rejected-invalid\n",
                daemon.service().epochs_cleared(),
                static_cast<unsigned long long>(counters.accepted),
                static_cast<unsigned long long>(counters.replaced),
                static_cast<unsigned long long>(counters.rejected_full),
                static_cast<unsigned long long>(counters.rejected_invalid));
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "musketeerd: error: %s\n", error.what());
    return 2;
  }
}
