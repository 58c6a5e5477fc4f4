// musk_loadgen — open-loop load generator for musketeerd.
//
//   musk_loadgen --connect tcp:PORT|unix:PATH [client options]
//   musk_loadgen --spawn [daemon options] [client options]
//
// client options:
//   --connections <n>   concurrent client connections        [4]
//   --rate <r>          aggregate target bids/sec            [1000]
//   --duration-s <s>    run length in seconds                [5]
//   --players <p>       player-id space to cycle through     [nodes]
//   --retry-budget-ms <ms>  cumulative backoff each submit may burn
//                       retrying through shed / lost connections before
//                       surrendering (0 = fail fast)         [2000]
//
// daemon options (--spawn starts an in-process musketeerd on an
// ephemeral loopback port; parsed by daemon_flags.hpp, as musketeerd's):
//   --nodes <n> --seed <s> --mechanism <m> --epoch-ms <ms>
//   --queue-cap <n> --threads <n> (epoch-solve concurrency for M2's
//   exclusion solves; 0 = hardware, 1 = in turn on the clearing thread)
//   --deadline-ms <ms> --degrade <m,m,...>
//   (per-epoch clearing deadline, and the degradation ladder tried after
//   a timeout, default m1 — see musketeerd; useful for demoing overload
//   shedding)
//
// Each connection thread paces submissions open-loop (scheduled send
// times, bursting to catch up if acks lag) and measures the ack round
// trip. The report gives sustained accepted bids/sec, the per-status
// intake counts (rejected-full is the queue shedding load), ack-latency
// percentiles, and epoch-clear-latency percentiles from the server's
// epoch-result broadcasts. Latencies go into shared obs::Histogram
// instances (per-thread shards, merged at drain), so the percentiles
// are identical no matter how the samples were split across workers.
//
// Exit status: 0 on success (including shed load — rejection is an
// answer), 1 on usage errors, 2 on runtime errors.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mechanism_factory.hpp"
#include "daemon_flags.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "util/rng.hpp"

using namespace musketeer;
// Pacing clock: obs::Timer::clock() is the sanctioned steady-clock
// source (see musk_lint's adhoc-timing rule).
using TimePoint = std::chrono::steady_clock::time_point;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: musk_loadgen (--connect tcp:PORT|unix:PATH | --spawn)"
               " [--connections n] [--rate r]\n"
               "                    [--duration-s s] [--players p] "
               "[--nodes n] [--seed s] [--mechanism m]\n"
               "                    [--epoch-ms ms] [--queue-cap n] "
               "[--threads n] [--deadline-ms ms]\n"
               "                    [--degrade m,m,...] "
               "[--retry-budget-ms ms]\n");
  return 1;
}

struct WorkerStats {
  std::uint64_t accepted = 0;
  std::uint64_t replaced = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_closed = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
};

struct StopSignal {
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;

  /// Interruptible wait until `when`; true means stop was requested.
  bool wait_until(TimePoint when) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_until(lock, when, [this] { return stop; });
  }

  void trigger() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stop = true;
    }
    cv.notify_all();
  }
};

void print_percentiles(const char* label, const obs::HistogramSnapshot& s) {
  if (s.count == 0) {
    std::printf("%s: no samples\n", label);
    return;
  }
  std::printf("%s: p50 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%llu)\n",
              label, s.quantile(0.5), s.quantile(0.95), s.quantile(0.99),
              s.max, static_cast<unsigned long long>(s.count));
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  bool spawn = false;
  int connections = 4;
  double rate = 1000.0;
  double duration_s = 5.0;
  flow::NodeId players = 0;
  long retry_budget_ms = 2000;
  std::string mechanism_name = "m3";
  sim::SimulationConfig sim_config;
  sim_config.initial_skew = 0.4;
  svc::DaemonConfig daemon_config;
  daemon_config.service.epoch_period = std::chrono::milliseconds(200);
  daemon_config.server.listen = "tcp:0";

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--spawn") {
        spawn = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (tools::parse_daemon_flag(flag, value, mechanism_name, sim_config,
                                   daemon_config.service)) {
        continue;
      }
      if (flag == "--connect") {
        connect = value;
      } else if (flag == "--connections") {
        connections = static_cast<int>(std::stol(value));
      } else if (flag == "--rate") {
        rate = std::stod(value);
      } else if (flag == "--duration-s") {
        duration_s = std::stod(value);
      } else if (flag == "--players") {
        players = static_cast<flow::NodeId>(std::stol(value));
      } else if (flag == "--retry-budget-ms") {
        retry_budget_ms = std::stol(value);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", flag.c_str());
        return usage();
      }
    }
    if (spawn == !connect.empty()) return usage();  // exactly one source
    if (connections < 1 || rate <= 0.0 || duration_s <= 0.0) return usage();
    if (players == 0) players = sim_config.num_nodes;

    std::unique_ptr<svc::Daemon> daemon;
    if (spawn) {
      auto mechanism =
          core::make_mechanism(mechanism_name, core::MechanismOptions{});
      if (!mechanism) return usage();
      util::Rng rng(sim_config.seed);
      daemon = std::make_unique<svc::Daemon>(
          sim::build_network(sim_config, rng), std::move(mechanism),
          daemon_config);
      daemon->start();
      connect = daemon->endpoint();
      std::printf("spawned musketeerd (%s) on %s\n", mechanism_name.c_str(),
                  connect.c_str());
    }

    StopSignal stop;
    std::vector<WorkerStats> stats(
        static_cast<std::size_t>(connections));
    // Shared histograms: record() lands in the calling thread's shard,
    // snapshot() after the join merges every shard deterministically.
    obs::Histogram ack_hist;
    obs::Histogram epoch_hist;
    const auto interval =
        std::chrono::duration_cast<TimePoint::duration>(
            std::chrono::duration<double>(static_cast<double>(connections) /
                                          rate));
    const obs::Timer run_timer;
    const TimePoint start = obs::Timer::clock();

    std::vector<std::jthread> workers;
    workers.reserve(static_cast<std::size_t>(connections));
    for (int t = 0; t < connections; ++t) {
      workers.emplace_back([&, t] {
        WorkerStats& my = stats[static_cast<std::size_t>(t)];
        try {
          // Resilient client: a load generator must outlive shedding —
          // retries are budget-limited, not attempt-limited, so a hot
          // server costs bounded backoff per bid instead of a dead
          // worker. Per-worker jitter seed keeps the herd staggered but
          // the run reproducible.
          svc::ClientConfig client_config;
          client_config.max_attempts = 8;
          client_config.backoff_base = std::chrono::milliseconds(25);
          client_config.backoff_max = std::chrono::milliseconds(1000);
          client_config.retry_budget =
              std::chrono::milliseconds(retry_budget_ms);
          client_config.jitter_seed =
              sim_config.seed * 997 + static_cast<std::uint64_t>(t) + 1;
          svc::Client client(connect, client_config);
          client.hello(static_cast<core::PlayerId>(t) % players);
          TimePoint next = obs::Timer::clock();
          std::uint64_t k = 0;
          for (;;) {
            if (stop.wait_until(next)) break;
            next += interval;
            svc::BidSubmission bid;
            bid.player = static_cast<core::PlayerId>(
                (static_cast<std::uint64_t>(t) +
                 k * static_cast<std::uint64_t>(connections)) %
                static_cast<std::uint64_t>(players));
            ++k;
            const obs::Timer t0;
            svc::BidAckMsg ack;
            try {
              ack = client.submit(bid);
            } catch (const svc::OverloadedError&) {
              // Terminal shed: the client's retry budget ran dry while
              // the server kept answering kRetryAfter. Keep the worker
              // alive — the next paced bid probes whether the overload
              // drained — but count the surrender.
              ++my.overloaded;
              continue;
            } catch (const svc::ServerBusyError&) {
              // Still shedding after max_attempts: the admission
              // controller refused this bid. Rejection is an answer —
              // count it and keep pacing.
              ++my.rejected_overload;
              continue;
            } catch (const std::exception&) {
              ++my.errors;
              break;
            }
            ack_hist.record(1e3 * t0.seconds());
            switch (ack.status) {
              case svc::IntakeStatus::kAccepted: ++my.accepted; break;
              case svc::IntakeStatus::kReplaced: ++my.replaced; break;
              case svc::IntakeStatus::kRejectedFull:
                ++my.rejected_full;
                break;
              case svc::IntakeStatus::kRejectedInvalid:
                ++my.rejected_invalid;
                break;
              case svc::IntakeStatus::kRejectedClosed:
                ++my.rejected_closed;
                break;
              case svc::IntakeStatus::kRejectedOverload:
                ++my.rejected_overload;
                break;
              case svc::IntakeStatus::kDuplicate: ++my.duplicate; break;
            }
          }
          // Every connection sees the same broadcasts; connection 0
          // records them (the spawn path overrides with exact
          // server-side reports below).
          if (t == 0 && !spawn) {
            for (const svc::EpochResultMsg& epoch :
                 client.take_epoch_results()) {
              epoch_hist.record(1e3 * epoch.clear_seconds);
            }
          }
        } catch (const std::exception& error) {
          std::fprintf(stderr, "worker %d: %s\n", t, error.what());
          ++my.errors;
        }
      });
    }

    stop.wait_until(start +
                    std::chrono::duration_cast<TimePoint::duration>(
                        std::chrono::duration<double>(duration_s)));
    stop.trigger();
    workers.clear();  // joins
    const double elapsed = run_timer.seconds();

    WorkerStats total;
    for (WorkerStats& s : stats) {
      total.accepted += s.accepted;
      total.replaced += s.replaced;
      total.rejected_full += s.rejected_full;
      total.rejected_invalid += s.rejected_invalid;
      total.rejected_closed += s.rejected_closed;
      total.rejected_overload += s.rejected_overload;
      total.duplicate += s.duplicate;
      total.overloaded += s.overloaded;
      total.errors += s.errors;
    }
    if (daemon) {
      // Exact server-side latencies beat sampled broadcasts.
      for (const svc::EpochReport& report : daemon->service().reports()) {
        epoch_hist.record(1e3 * report.clear_seconds);
      }
    }

    const std::uint64_t queued = total.accepted + total.replaced;
    const std::uint64_t submitted =
        queued + total.rejected_full + total.rejected_invalid +
        total.rejected_closed + total.rejected_overload + total.duplicate;
    std::printf("connections %d, target %.0f bids/s, ran %.2f s\n",
                connections, rate, elapsed);
    std::printf("submitted %llu (%.1f/s), queued %llu (%.1f/s): "
                "%llu accepted + %llu replaced\n",
                static_cast<unsigned long long>(submitted),
                static_cast<double>(submitted) / elapsed,
                static_cast<unsigned long long>(queued),
                static_cast<double>(queued) / elapsed,
                static_cast<unsigned long long>(total.accepted),
                static_cast<unsigned long long>(total.replaced));
    std::printf("shed: %llu rejected-full, %llu rejected-invalid, "
                "%llu rejected-closed, %llu rejected-overload, "
                "%llu duplicate, %llu budget-exhausted, "
                "%llu transport errors\n",
                static_cast<unsigned long long>(total.rejected_full),
                static_cast<unsigned long long>(total.rejected_invalid),
                static_cast<unsigned long long>(total.rejected_closed),
                static_cast<unsigned long long>(total.rejected_overload),
                static_cast<unsigned long long>(total.duplicate),
                static_cast<unsigned long long>(total.overloaded),
                static_cast<unsigned long long>(total.errors));
    print_percentiles("ack latency ms", ack_hist.snapshot());
    print_percentiles("epoch clear ms", epoch_hist.snapshot());
    if (daemon) {
      // The spawned service's own overload picture: aborted epochs
      // never produce reports, so the health counters are the only
      // place an all-degraded run shows up.
      const svc::ServiceStats health = daemon->service().stats_snapshot();
      std::printf(
          "service: %d cleared, %llu deadline-exceeded, %llu degraded, "
          "%llu aborted, shed level %d (ewma clear %.1f ms)\n",
          health.epochs_cleared,
          static_cast<unsigned long long>(health.deadline_exceeded),
          static_cast<unsigned long long>(health.degraded_epochs),
          static_cast<unsigned long long>(health.aborted_epochs),
          health.shed_level, 1e3 * health.ewma_clear_seconds);
    }

    if (daemon) daemon->stop();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "musk_loadgen: error: %s\n", error.what());
    return 2;
  }
}
