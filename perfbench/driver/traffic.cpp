// Closed-loop payment traffic at msat amount scale (m3-msat-traffic).
//
// A scenario is a seeded Barabási–Albert network with balances of
// 50k–200k per side, half its channels skewed 10/90, and one batch of
// 200 cyclic-trade payments (4 groups, 1k–50k) before every epoch. A
// pass replays one scenario from a fresh RebalanceService with the
// shipped ServiceConfig behind a loopback SocketServer (the daemon's
// wiring without the journal): send the batch, refresh every player's
// participation over one client connection, run_epoch, and wait for the
// result on a second, subscribing connection — one caller, epochs
// serialised as the scheduler runs them. The first epoch of a pass is
// the cold one (set-up); the rest are timed as steady clears.
//
// How much clearing work an epoch takes depends strongly on the
// network and the payment stream, so one run pools a cycle of
// independent scenarios, each drawn from the run's seed; whole cycles
// repeat while the run's time lasts. Every cycle does the same work,
// so payment_success and the digests are exact for the seed.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/mechanism_factory.hpp"
#include "gen/workload.hpp"
#include "pcn/payment.hpp"
#include "replica.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kPaymentsPerEpoch = 200;
/// Scenarios per cycle in short mode.
constexpr int kShortScenarios = 2;

sim::SimulationConfig scenario_config(const TrafficSpec& spec) {
  sim::SimulationConfig config;
  config.num_nodes = spec.nodes;
  config.ba_attachment = 2;
  config.balance_min = 50'000;
  config.balance_max = 200'000;
  config.initial_skew = 0.4;
  config.skew_fraction = 0.5;
  config.workload.cyclic_groups = 4;
  config.workload.amount_min = 1'000;
  config.workload.amount_max = 50'000;
  return config;
}

struct Scenario {
  sim::SimulationConfig config;
  pcn::Network network{0};
  /// batches[0] precedes the cold epoch, batches[k] steady epoch k.
  std::vector<std::vector<gen::Payment>> batches;
};

Scenario make_scenario(const TrafficSpec& spec, std::uint64_t seed,
                       int epochs) {
  Scenario s;
  s.config = scenario_config(spec);
  util::Rng rng(seed);
  s.network = sim::build_network(s.config, rng);
  util::Rng payments = rng.fork();
  for (int k = 0; k <= epochs; ++k) {
    s.batches.push_back(gen::generate_payments(
        s.config.num_nodes, kPaymentsPerEpoch, s.config.workload, payments));
  }
  return s;
}

/// What one pass measured.
struct Pass {
  double setup_s = 0.0;
  std::vector<double> clear_ms, notice_ms, ack_us;
  double clearing_s = 0.0;  ///< time inside steady run_epoch calls
  double gen_max_s = 0.0;
  long long payments_ok = 0, payments_tried = 0;
  std::vector<std::uint64_t> digests;  ///< settled digest per epoch
  std::vector<TracedEpoch> traced;
};

class PassRunner {
 public:
  PassRunner(const core::Mechanism& mechanism, Recorder* recorder,
             std::string journal_dir)
      : mechanism_(mechanism),
        recorder_(recorder),
        journal_dir_(std::move(journal_dir)) {}

  /// Runs `scenario`; spans of its epochs are tagged from `tag0` on.
  void run(const Scenario& scenario, int tag0, Result& result, Pass& out) {
    scenario_ = &scenario;
    network_ = scenario.network;
    std::unique_ptr<svc::Journal> journal;
    std::unique_ptr<Replica> replica;
    if (recorder_ != nullptr) {
      std::filesystem::remove_all(journal_dir_);
      std::filesystem::create_directories(journal_dir_);
      journal = std::make_unique<svc::Journal>(journal_dir_ + "/journal");
      replica = std::make_unique<Replica>(scenario.network, mechanism_,
                                          svc::ServiceConfig{}.policy, 0,
                                          *recorder_, journal.get());
    }
    const int epochs = static_cast<int>(scenario.batches.size()) - 1;

    send(scenario.batches[0], replica.get(), result, out);
    const auto t0 = Clock::now();
    svc::RebalanceService service(network_, mechanism_, svc::ServiceConfig{});
    svc::SocketServer server(service, svc::ServerConfig{});
    server.start();
    clear(service, 0, tag0, replica.get(), result, out);
    out.setup_s = seconds_between(t0, report_done_);

    svc::Client bidder(server.endpoint());
    svc::Client subscriber(server.endpoint());
    // One round trip each: the server serves both connections before
    // the first steady epoch is broadcast.
    bidder.stats();
    subscriber.stats();
    for (int k = 1; k <= epochs; ++k) {
      const auto gen_start = Clock::now();
      send(scenario.batches[static_cast<std::size_t>(k)], replica.get(),
           result, out);
      refresh(bidder, result, out);
      out.gen_max_s = std::max(out.gen_max_s, seconds_since(gen_start));
      const auto boundary = Clock::now();
      const svc::EpochReport report =
          clear(service, k, tag0 + k, replica.get(), result, out);
      const double clear_s = seconds_between(boundary, report_done_);
      out.clear_ms.push_back(1e3 * clear_s);
      out.clearing_s += clear_s;
      const auto notice = subscriber.wait_epoch_at_least(
          static_cast<std::uint32_t>(report.epoch), std::chrono::seconds(5));
      out.notice_ms.push_back(1e3 * seconds_since(boundary));
      if (!notice || notice->network_digest != report.network_digest) {
        result.fail("epoch " + std::to_string(k) +
                    ": the subscriber's result differs from the service's");
      }
      subscriber.take_epoch_results();
      bidder.take_epoch_results();
      if (replica != nullptr) {
        out.traced.back().clear_seconds = report.clear_seconds;
        out.traced.back().bids_applied = report.bids_applied;
      }
    }
    bidder.close();
    subscriber.close();
    server.stop();
    if (recorder_ != nullptr) {
      replica.reset();
      journal.reset();
      std::filesystem::remove_all(journal_dir_);
    }
  }

 private:
  void send(const std::vector<gen::Payment>& batch, Replica* replica,
            Result& result, Pass& out) {
    const int hops = scenario_->config.max_hops;
    for (const gen::Payment& p : batch) {
      const bool ok =
          pcn::send_payment(network_, p.sender, p.receiver, p.amount, 3, hops)
              .success;
      if (replica != nullptr &&
          pcn::send_payment(replica->network(), p.sender, p.receiver,
                            p.amount, 3, hops)
                  .success != ok) {
        result.fail("replica routed a payment differently");
      }
      out.payments_ok += ok ? 1 : 0;
      out.payments_tried += 1;
    }
  }

  /// Every player refreshes its participation over the wire, one
  /// round trip after another.
  void refresh(svc::Client& bidder, Result& result, Pass& out) {
    for (pcn::NodeId v = 0; v < network_.num_nodes(); ++v) {
      svc::BidSubmission bid;
      bid.player = v;
      const auto t = Clock::now();
      const svc::BidAckMsg ack = bidder.submit(bid);
      out.ack_us.push_back(1e6 * seconds_since(t));
      result.attempted += 1;
      if (!svc::intake_ok(ack.status)) {
        result.failed += 1;
        result.fail(std::string("intake refused a refresh: ") +
                    svc::to_string(ack.status));
      }
    }
  }

  svc::EpochReport clear(svc::RebalanceService& service, int epoch, int tag,
                         Replica* replica, Result& result, Pass& out) {
    const std::vector<pcn::Amount> wealth = node_wealth(network_);
    result.attempted += 1;
    svc::EpochReport report;
    if (recorder_ != nullptr) {
      Recorder::Scope span(*recorder_, "svc.run_epoch", tag, -1);
      report = service.run_epoch();
    } else {
      report = service.run_epoch();
    }
    report_done_ = Clock::now();
    if (report.aborted) {
      result.failed += 1;
      result.fail("epoch " + std::to_string(epoch) + " aborted");
    }
    check_settlement(network_, wealth, epoch, result);
    if (report.network_digest != network_.state_digest()) {
      result.fail("epoch " + std::to_string(epoch) +
                  ": reported digest differs from the network's");
    }
    out.digests.push_back(report.network_digest);
    if (replica != nullptr) {
      TracedEpoch traced;
      traced.tag = tag;
      if (replica->replay(tag, traced.counts, result) !=
          report.network_digest) {
        result.fail("epoch " + std::to_string(epoch) +
                    ": replica digest differs from the service's");
      }
      if (epoch > 0) out.traced.push_back(traced);
    }
    return report;
  }

  const Scenario* scenario_ = nullptr;
  const core::Mechanism& mechanism_;
  Recorder* recorder_;
  const std::string journal_dir_;
  pcn::Network network_{0};
  Clock::time_point report_done_;
};

}  // namespace

Result run_traffic(const Options& options, const TrafficSpec& spec) {
  Result result;
  const bool short_mode = options.epochs > 0;
  const int epochs = short_mode ? options.epochs : spec.epochs_per_pass;
  const int count = short_mode ? kShortScenarios : spec.scenarios;
  std::vector<Scenario> scenarios;
  util::Rng seeds(options.seed);
  for (int k = 0; k < count; ++k) {
    scenarios.push_back(make_scenario(spec, seeds(), epochs));
  }
  const std::unique_ptr<core::Mechanism> mechanism =
      core::make_mechanism(spec.mechanism, core::MechanismOptions{});
  std::unique_ptr<Recorder> recorder;
  if (options.trace) recorder = std::make_unique<Recorder>();
  PassRunner runner(*mechanism, recorder.get(),
                    options.out_dir + "/journal-" + options.workload + "-" +
                        std::to_string(options.seed));

  // Whole cycles only, so every scenario weighs the same in the pooled
  // samples; the first cycle's digests are the reference for the rest.
  std::vector<Pass> passes;
  const auto start = Clock::now();
  double longest_cycle_s = 0.0;
  int tag = 0;
  try {
    for (int cycle = 0;; ++cycle) {
      if (cycle > 0 &&
          (short_mode ||
           seconds_since(start) + longest_cycle_s > options.seconds)) {
        break;
      }
      const auto cycle_start = Clock::now();
      for (int k = 0; k < count; ++k) {
        Pass& pass = passes.emplace_back();
        runner.run(scenarios[static_cast<std::size_t>(k)], tag, result, pass);
        tag += epochs + 1;
        if (cycle == 0) {
          result.digests.insert(result.digests.end(), pass.digests.begin(),
                                pass.digests.end());
        } else if (pass.digests != passes[static_cast<std::size_t>(k)].digests) {
          result.fail("a repeated scenario settled differently");
        }
      }
      longest_cycle_s = std::max(longest_cycle_s, seconds_since(cycle_start));
    }
  } catch (const std::exception& e) {
    result.failed += 1;
    result.fail(std::string("pass threw: ") + e.what());
  }

  long long payments_ok = 0, payments_tried = 0;
  for (std::size_t k = 0; k < passes.size() && k < scenarios.size(); ++k) {
    payments_ok += passes[k].payments_ok;
    payments_tried += passes[k].payments_tried;
  }
  const double payment_success =
      static_cast<double>(payments_ok) /
      static_cast<double>(std::max(1LL, payments_tried));
  result.counts["payment_success"] = payment_success;

  if (options.trace) {
    std::vector<TracedEpoch> traced;
    double gen_max_s = 0.0;
    for (const Pass& p : passes) {
      traced.insert(traced.end(), p.traced.begin(), p.traced.end());
      gen_max_s = std::max(gen_max_s, p.gen_max_s);
    }
    report_layers(*recorder, traced, gen_max_s, result);
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!recorder->write_chrome_json(path)) result.fail("cannot write " + path);
    return result;
  }

  // Every metric pools the samples of all passes: one scenario's clears
  // can take twice another's, so a statistic over a few scenarios at a
  // time would move with the seed.
  std::vector<double> setups, clear_ms, notice_ms, ack_us;
  double clearing_s = 0.0;
  for (const Pass& p : passes) {
    setups.push_back(p.setup_s);
    clear_ms.insert(clear_ms.end(), p.clear_ms.begin(), p.clear_ms.end());
    notice_ms.insert(notice_ms.end(), p.notice_ms.begin(), p.notice_ms.end());
    ack_us.insert(ack_us.end(), p.ack_us.begin(), p.ack_us.end());
    clearing_s += p.clearing_s;
  }
  result.set("setup_s", median(setups), "s");
  result.set("clear_ms_p50", quantile(clear_ms, 0.5), "ms");
  result.set("clear_ms_p90", quantile(clear_ms, 0.9), "ms");
  result.set("epochs_per_s",
             static_cast<double>(clear_ms.size()) / clearing_s, "1/s");
  result.set("ack_us_p50", quantile(ack_us, 0.5), "us");
  result.set("ack_us_p90", quantile(ack_us, 0.9), "us");
  result.set("notice_ms_p50", quantile(notice_ms, 0.5), "ms");
  result.set("payment_success", payment_success, "ratio");
  result.samples["clear"] = static_cast<long long>(clear_ms.size());
  result.samples["ack"] = static_cast<long long>(ack_us.size());
  result.samples["passes"] = static_cast<long long>(passes.size());
  result.samples["cycle_ms"] = static_cast<long long>(1e3 * longest_cycle_s);
  result.samples["clearing_ms"] = static_cast<long long>(1e3 * clearing_s);
  return result;
}

}  // namespace perfbench
