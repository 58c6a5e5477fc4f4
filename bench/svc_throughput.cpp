// SVC — service-layer throughput and latency:
//
// (a) sustained concurrent bid intake (4 closed-loop submitter threads
//     hammering RebalanceService::submit while the main thread clears
//     epochs), reporting bids/sec and ack-latency percentiles;
// (b) first-epoch clear latency (drain -> snapshot -> mechanism ->
//     settle) across network sizes;
// (c) full wire-stack round-trip cost through an in-process musketeerd
//     (socket + framing + codec + intake + ack);
// (d) graceful shedding: 2x queue capacity of distinct players gets
//     exactly capacity accepts and capacity explicit kRejectedFull
//     rejections, replaces still land, and the next epoch drains clean;
// (e) the OrderedMutex zero-overhead claim: uncontended lock/unlock
//     ns/op vs a raw std::mutex. In builds without MUSKETEER_LOCK_RANK
//     the wrapper must cost the same as the mutex it wraps (the ratio
//     gate fails the bench otherwise); with the auditor compiled in the
//     overhead is reported but not gated.
// (f) the cost of each obs instrument: a hot loop with one
//     MUSK_OBS_COUNT, _GAUGE, _HISTOGRAM or _SPAN (tracing off) per
//     iteration against the bare loop. Reported, not gated; DESIGN.md
//     §12.3 quotes the numbers.
//
// Companion to tools/musk_loadgen, which drives the same stack over real
// sockets at a *configured* open-loop rate; this bench is closed-loop
// and flagless so `build/bench/svc_throughput` just runs.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/mechanism_factory.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/service.hpp"
#include "util/bench_json.hpp"
#include "util/ordered_mutex.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace musketeer;
using Clock = std::chrono::steady_clock;

namespace {

sim::SimulationConfig bench_config(int nodes, std::uint64_t seed) {
  sim::SimulationConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.initial_skew = 0.4;
  return config;
}

pcn::Network bench_network(const sim::SimulationConfig& config) {
  util::Rng rng(config.seed);
  return sim::build_network(config, rng);
}

std::vector<std::string> latency_row(const char* what,
                                     std::vector<double>& ms) {
  return {what,
          std::to_string(ms.size()),
          util::fmt_double(util::quantile(ms, 0.5), 3),
          util::fmt_double(util::quantile(ms, 0.95), 3),
          util::fmt_double(util::quantile(ms, 0.99), 3),
          util::fmt_double(util::max_of(ms), 3)};
}

}  // namespace

int main() {
  util::BenchReport bench("svc_throughput");
  // ------------------------------------------- (a) concurrent intake
  constexpr int kThreads = 4;
  constexpr int kSubmitsPerThread = 25000;
  std::printf("SVC(a): sustained intake — %d closed-loop threads x %d "
              "submits against a live service\n(100-node network, m3, "
              "epochs clearing concurrently on the main thread)\n\n",
              kThreads, kSubmitsPerThread);

  util::Table lat({"path", "samples", "p50 ms", "p95 ms", "p99 ms", "max ms"});
  {
    const sim::SimulationConfig config = bench_config(100, 7);
    pcn::Network network = bench_network(config);
    const auto mechanism = core::make_mechanism("m3", {});
    svc::ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.queue_capacity = 256;
    svc::RebalanceService service(network, *mechanism, service_config);

    std::vector<std::vector<double>> ack_ms(kThreads);
    std::atomic<int> active{kThreads};
    const auto t0 = Clock::now();
    int epochs = 0;
    {
      std::vector<std::jthread> submitters;
      submitters.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
          ack_ms[static_cast<std::size_t>(t)].reserve(kSubmitsPerThread);
          for (int i = 0; i < kSubmitsPerThread; ++i) {
            svc::BidSubmission bid;
            bid.player =
                static_cast<core::PlayerId>((t * 7919 + i) % 100);
            const auto s0 = Clock::now();
            service.submit(bid);
            ack_ms[static_cast<std::size_t>(t)].push_back(
                std::chrono::duration<double, std::milli>(Clock::now() - s0)
                    .count());
          }
          active.fetch_sub(1);
        });
      }
      // Clear epochs for as long as the submitters keep the queue hot.
      while (active.load() > 0) {
        service.run_epoch();
        ++epochs;
      }
    }
    service.run_epoch();  // drain the leftovers
    ++epochs;
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::vector<double> all_ack;
    all_ack.reserve(static_cast<std::size_t>(kThreads) * kSubmitsPerThread);
    for (auto& v : ack_ms) all_ack.insert(all_ack.end(), v.begin(), v.end());
    std::vector<double> clear_ms;
    for (const svc::EpochReport& r : service.reports()) {
      clear_ms.push_back(1e3 * r.clear_seconds);
    }
    const svc::IntakeCounters counters = service.intake_counters();
    std::printf("  %.2fs wall, %.0f bids/sec sustained, %d epochs cleared\n"
                "  intake: %llu accepted, %llu replaced (every submit "
                "accounted for)\n\n",
                wall, static_cast<double>(counters.total()) / wall, epochs,
                static_cast<unsigned long long>(counters.accepted),
                static_cast<unsigned long long>(counters.replaced));
    lat.add_row(latency_row("submit ack (in-process)", all_ack));
    lat.add_row(latency_row("epoch clear (under load)", clear_ms));
    bench.add("submit_ack_inproc", 1e6 * util::mean(all_ack),
              all_ack.size());
    bench.add("epoch_clear_under_load", 1e6 * util::mean(clear_ms),
              clear_ms.size());
  }

  // --------------------------------------- (b) clear latency vs size
  std::vector<double> clear_by_size[3];
  const int sizes[3] = {50, 100, 200};
  for (int s = 0; s < 3; ++s) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const sim::SimulationConfig config = bench_config(sizes[s], seed);
      pcn::Network network = bench_network(config);
      const auto mechanism = core::make_mechanism("m3", {});
      svc::ServiceConfig service_config;
      service_config.policy = config.policy;
      svc::RebalanceService service(network, *mechanism, service_config);
      clear_by_size[s].push_back(1e3 * service.run_epoch().clear_seconds);
    }
  }
  lat.add_row(latency_row("first clear, n=50 (12 seeds)", clear_by_size[0]));
  lat.add_row(latency_row("first clear, n=100 (12 seeds)", clear_by_size[1]));
  lat.add_row(latency_row("first clear, n=200 (12 seeds)", clear_by_size[2]));
  for (int s = 0; s < 3; ++s) {
    bench.add(util::format("first_clear/n%d", sizes[s]),
              1e6 * util::mean(clear_by_size[s]), clear_by_size[s].size());
  }
  // Reference p50s from the pre-lock-rank tree on the dev container
  // (LOCK_RANK off): 0.305 / 1.792 / 16.894 ms for n=50/100/200. Machine-
  // dependent, so informational only — the enforced regression gate is
  // the lock ns/op ratio in section (e).
  std::printf("  (pre-OrderedMutex baseline p50, dev container: "
              "0.305 / 1.792 / 16.894 ms for n=50/100/200)\n");

  // ------------------------------------------ (c) wire round trip
  {
    constexpr int kWireSubmits = 2000;
    const sim::SimulationConfig config = bench_config(100, 9);
    svc::DaemonConfig daemon_config;
    daemon_config.service.policy = config.policy;
    daemon_config.server.listen = "tcp:0";
    svc::Daemon daemon(bench_network(config), core::make_mechanism("m3", {}),
                       daemon_config);
    daemon.start(/*periodic_epochs=*/false);
    svc::Client client(daemon.endpoint());
    std::vector<double> rtt_ms;
    rtt_ms.reserve(kWireSubmits);
    for (int i = 0; i < kWireSubmits; ++i) {
      svc::BidSubmission bid;
      bid.player = static_cast<core::PlayerId>(i % 100);
      const auto s0 = Clock::now();
      client.submit(bid);
      rtt_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - s0)
              .count());
      if ((i + 1) % 500 == 0) daemon.service().run_epoch();
    }
    daemon.stop();
    lat.add_row(latency_row("submit ack (wire, musketeerd)", rtt_ms));
    bench.add("submit_ack_wire", 1e6 * util::mean(rtt_ms), rtt_ms.size());
  }
  lat.print();
  util::maybe_export_csv(lat, "svc_latency");

  // ------------------------------------------------- (d) shedding
  std::printf("\nSVC(d): shedding at 2x queue capacity (capacity 64, 128 "
              "distinct players)\n\n");
  bool shedding_ok = true;
  {
    const sim::SimulationConfig config = bench_config(200, 21);
    pcn::Network network = bench_network(config);
    const auto mechanism = core::make_mechanism("m3", {});
    svc::ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.queue_capacity = 64;
    svc::RebalanceService service(network, *mechanism, service_config);

    int accepted = 0;
    int shed = 0;
    for (core::PlayerId p = 0; p < 128; ++p) {
      svc::BidSubmission bid;
      bid.player = p;
      const svc::IntakeStatus status = service.submit(bid);
      accepted += (status == svc::IntakeStatus::kAccepted);
      shed += (status == svc::IntakeStatus::kRejectedFull);
    }
    const bool replace_at_capacity =
        service.submit(svc::BidSubmission{}) == svc::IntakeStatus::kReplaced;
    const std::size_t applied = service.run_epoch().bids_applied;
    const bool accepts_after_drain =
        service.submit(svc::BidSubmission{}) == svc::IntakeStatus::kAccepted;

    util::Table shed_table({"offered", "accepted", "shed (explicit)",
                            "replace at cap", "applied", "accepts after"});
    shed_table.add_row({"128", std::to_string(accepted), std::to_string(shed),
                        replace_at_capacity ? "yes" : "no",
                        std::to_string(applied),
                        accepts_after_drain ? "yes" : "no"});
    shed_table.print();
    util::maybe_export_csv(shed_table, "svc_shedding");
    shedding_ok = accepted == 64 && shed == 64 && replace_at_capacity &&
                  applied == 64 && accepts_after_drain;
  }
  if (!shedding_ok) {
    std::printf("\nFAIL: shedding did not behave as designed\n");
    return 1;
  }
  std::printf("\nevery overflow submission was rejected explicitly; none "
              "dropped silently\n");

  // ------------------------------- (e) OrderedMutex overhead guard
  {
    constexpr int kReps = 9;
    constexpr int kOpsPerRep = 2000000;
    const auto measure = [&](auto& mutex) {
      std::vector<double> ns_per_op;
      ns_per_op.reserve(kReps);
      std::uint64_t sink = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto m0 = Clock::now();
        for (int i = 0; i < kOpsPerRep; ++i) {
          mutex.lock();
          ++sink;
          mutex.unlock();
        }
        ns_per_op.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - m0)
                .count() /
            kOpsPerRep);
      }
      // The sink keeps the critical section from folding away entirely.
      if (sink == 0) std::printf("unreachable\n");
      return util::quantile(ns_per_op, 0.5);
    };

    std::mutex raw;
    util::OrderedMutex ordered(util::LockRank::kBidQueue, "bench");
    const double raw_ns = measure(raw);
    const double ordered_ns = measure(ordered);
    const double ratio = ordered_ns / raw_ns;
    const bool audited = util::lock_rank::compiled_in();
    std::printf("\nSVC(e): uncontended lock/unlock, median of %d x %dM "
                "ops\n  std::mutex %.1f ns/op, OrderedMutex %.1f ns/op "
                "(%.2fx, auditor %s)\n",
                kReps, kOpsPerRep / 1000000, raw_ns, ordered_ns, ratio,
                audited ? "ON" : "OFF");
    // Zero-overhead claim: without MUSKETEER_LOCK_RANK the wrapper is a
    // bare std::mutex plus a dead source_location argument; anything
    // past noise means the rank machinery leaked into the fast path.
    // 1.5x tolerates scheduler jitter while catching a real branch or
    // thread-local access (~3x on this container).
    if (!audited && ratio > 1.5) {
      std::printf("FAIL: OrderedMutex costs %.2fx a raw std::mutex with "
                  "the auditor compiled out — the LOCK_RANK=OFF path "
                  "must be free\n",
                  ratio);
      return 1;
    }
    bench.add("lock_raw", raw_ns, kOpsPerRep);
    bench.add("lock_ordered", ordered_ns, kOpsPerRep);
  }

  // ------------------------------- (f) cost of each obs instrument
  {
    constexpr int kReps = 9;
    constexpr int kOpsPerRep = 2000000;
    const auto measure = [&](auto&& body) {
      std::vector<double> ns_per_op;
      ns_per_op.reserve(kReps);
      std::uint64_t sink = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        const auto m0 = Clock::now();
        for (int i = 0; i < kOpsPerRep; ++i) {
          body(sink);
          // Optimization barrier: without it the bare loop folds to a
          // single add and measures ~0 ns.
          asm volatile("" : "+r"(sink));
        }
        ns_per_op.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - m0)
                .count() /
            kOpsPerRep);
      }
      if (sink == 0) std::printf("unreachable\n");
      return util::quantile(ns_per_op, 0.5);
    };

    const double bare_ns = measure([](std::uint64_t& sink) { ++sink; });
    struct Instrument {
      const char* op;
      double ns;
    };
    const Instrument instruments[] = {
        {"obs_count", measure([](std::uint64_t& sink) {
           MUSK_OBS_COUNT("bench.obs.count", 1);
           ++sink;
         })},
        {"obs_gauge", measure([](std::uint64_t& sink) {
           ++sink;
           MUSK_OBS_GAUGE("bench.obs.gauge", static_cast<double>(sink));
         })},
        {"obs_histogram", measure([](std::uint64_t& sink) {
           ++sink;
           MUSK_OBS_HISTOGRAM("bench.obs.histogram",
                              static_cast<double>(sink & 1023));
         })},
        {"obs_span", measure([](std::uint64_t& sink) {
           MUSK_OBS_SPAN(span, "bench.obs.span");
           ++sink;
         })},
    };
    std::printf("\nSVC(f): one obs instrument per iteration of a hot loop, "
                "median of %d x %dM ops (tracing off)\n  bare %.2f ns/op\n",
                kReps, kOpsPerRep / 1000000, bare_ns);
    bench.add("obs_bare", bare_ns, kOpsPerRep);
    for (const Instrument& instrument : instruments) {
      std::printf("  %-14s %6.2f ns/op, %6.2f ns over bare\n", instrument.op,
                  instrument.ns, instrument.ns - bare_ns);
      bench.add(instrument.op, instrument.ns, kOpsPerRep);
    }
  }
  return 0;
}
