// daemon-quiescent-tcp: the in-process musketeerd wiring (svc::Daemon:
// service and socket server) on TCP loopback, over a network settled to
// quiescence before timing starts.
//
// Open loop: two client connections send participation refreshes for
// 200 players at a fixed 4000 bids/s in total, a third connection
// subscribes to epoch results, and the driver thread calls run_epoch
// every 20 ms on schedule. Every clear is a certificate-only solve, so
// intake, wire, digest and broadcast dominate. Bids are timed
// from their scheduled send time and notices from the scheduled epoch
// boundary, so a stall also counts against the requests queued behind
// it.
//
// The timed daemon runs without its journal: the benchmark may write
// only inside its checkout, where every journal fsync would time the
// host's disk rather than the program. The traced run appends every
// epoch to a bench-owned journal instead (svc.journal_append_us) and
// scans it at exit.
//
// A run is several sessions, each a fresh daemon and set of connections
// driven for an equal share of the run. Every metric is the median over
// sessions of that session's value, so a burst of load from outside the
// benchmark that spoils one session does not move the result.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/mechanism_factory.hpp"
#include "gen/workload.hpp"
#include "pcn/payment.hpp"
#include "replica.hpp"
#include "sim/engine.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kNodes = 200;
constexpr int kBidConnections = 2;
constexpr double kBidsPerSecond = 4000.0;
constexpr auto kEpochPeriod = std::chrono::milliseconds(20);
constexpr int kSessions = 10;
constexpr int kProbePayments = 2000;
constexpr int kMaxSettleEpochs = 1000;
/// Lead time for the clients to connect before the first scheduled bid.
constexpr auto kLead = std::chrono::milliseconds(50);

/// musketeerd's default network at n = 200: unit-scale balances of
/// 50–200 per side, every channel skewed 10/90.
sim::SimulationConfig network_config() {
  sim::SimulationConfig config;
  config.num_nodes = kNodes;
  config.ba_attachment = 2;
  config.initial_skew = 0.4;
  return config;
}

/// Clears epochs until one executes no cycle; from then on every epoch
/// is quiescent (same network, same game, zero flow).
void settle(pcn::Network& network, const core::Mechanism& mechanism,
            Result& result) {
  svc::RebalanceService service(network, mechanism, svc::ServiceConfig{});
  for (int i = 0; i < kMaxSettleEpochs; ++i) {
    if (service.run_epoch().cycles_executed == 0) return;
  }
  result.fail("the network did not settle");
}

/// Share of seeded unit-scale payments the settled network routes. Each
/// probe runs on its own copy of the network, so the probes do not
/// deplete it for one another and the daemon's network stays quiescent.
double probe_payment_success(const pcn::Network& settled, util::Rng& rng,
                             int max_hops) {
  const std::vector<gen::Payment> probes =
      gen::generate_payments(kNodes, kProbePayments, gen::WorkloadConfig{}, rng);
  int ok = 0;
  for (const gen::Payment& p : probes) {
    pcn::Network network = settled;
    ok += pcn::send_payment(network, p.sender, p.receiver, p.amount, 3,
                            max_hops)
              .success
              ? 1
              : 0;
  }
  return static_cast<double>(ok) / static_cast<double>(probes.size());
}

struct BidLog {
  std::vector<double> ack_us;
  double lag_max_s = 0.0;
  long long sent = 0;
  long long failed = 0;
  std::string error;
};

/// One bid connection: refreshes players i, i + 2, i + 4, ... on a fixed
/// schedule until `end`.
void send_bids(svc::Client& client, int index, Clock::time_point start,
               Clock::time_point end, BidLog& log) {
  tight_timer_slack();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kBidConnections / kBidsPerSecond));
  const auto offset = period * index / kBidConnections;
  for (long long j = 0;; ++j) {
    const Clock::time_point due = start + offset + period * j;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    log.lag_max_s = std::max(log.lag_max_s, seconds_since(due));
    svc::BidSubmission bid;
    bid.player = static_cast<core::PlayerId>(
        (j * kBidConnections + index) % kNodes);
    try {
      const svc::BidAckMsg ack = client.submit(bid);
      log.ack_us.push_back(1e6 * seconds_since(due));
      log.sent += 1;
      if (!svc::intake_ok(ack.status)) {
        log.failed += 1;
        log.error = std::string("bid not accepted: ") +
                    svc::to_string(ack.status);
      }
    } catch (const std::exception& e) {
      log.sent += 1;
      log.failed += 1;
      log.error = std::string("submit failed: ") + e.what();
      return;
    }
    // Epoch broadcasts reach every connection; drop them as they come.
    if (j % 64 == 0) client.take_epoch_results();
  }
}

struct Seen {
  std::uint32_t epoch = 0;
  Clock::time_point at;
  std::uint64_t digest = 0;
};

/// The subscriber connection: records when each epoch result arrives,
/// from epoch 1 until `last_epoch` (set by the driver when it is done).
void subscribe(svc::Client& client, const std::atomic<int>& last_epoch,
               Clock::time_point give_up, std::vector<Seen>& seen,
               std::string& error) {
  tight_timer_slack();
  std::uint32_t next = 1;
  try {
    while (Clock::now() < give_up && !client.closed()) {
      const int last = last_epoch.load();
      if (last >= 0 && next > static_cast<std::uint32_t>(last)) return;
      if (!client.wait_epoch_at_least(next, std::chrono::milliseconds(20))) {
        continue;
      }
      const auto at = Clock::now();
      for (const svc::EpochResultMsg& m : client.take_epoch_results()) {
        if (m.epoch < next) continue;
        seen.push_back(Seen{m.epoch, at, m.network_digest});
        next = m.epoch + 1;
      }
    }
  } catch (const std::exception& e) {
    error = std::string("subscriber failed: ") + e.what();
  }
}

/// The run-wide state every session adds to.
struct Run {
  Run(const pcn::Network& network, Result& out)
      : settled(network),
        settled_digest(network.state_digest()),
        settled_wealth(node_wealth(network)),
        result(out) {}

  const pcn::Network& settled;
  const std::uint64_t settled_digest;
  const std::vector<pcn::Amount> settled_wealth;
  Recorder* recorder = nullptr;
  Replica* replica = nullptr;
  Result& result;
  /// metric name -> one value per session.
  std::map<std::string, std::vector<double>> sessions;
  std::vector<TracedEpoch> traced;
  long long clear_samples = 0, ack_samples = 0, notice_samples = 0;
  double lag_max_s = 0.0;
  int tag = 0;  ///< span tag of the next traced epoch
};

/// One session: set up a daemon (timed: construct, start the server,
/// clear the cold epoch), drive it for `measure` (or `epochs` epochs),
/// tear it down, check what its clients saw and record its metrics.
void run_session(Run& run, Clock::duration measure, int epochs) {
  Result& result = run.result;
  svc::DaemonConfig daemon_config;
  pcn::Network network = run.settled;
  const auto t0 = Clock::now();
  svc::Daemon daemon(std::move(network),
                     core::make_mechanism("m3", core::MechanismOptions{}),
                     daemon_config);
  daemon.start(/*periodic_epochs=*/false);
  const svc::EpochReport cold = daemon.service().run_epoch();
  const double setup_s = seconds_since(t0);
  result.attempted += 1;
  if (cold.aborted || cold.network_digest != run.settled_digest) {
    result.failed += 1;
    result.fail("the cold epoch moved the settled network");
  }

  const std::string endpoint = daemon.endpoint();
  std::vector<svc::Client> bidders;
  for (int i = 0; i < kBidConnections; ++i) bidders.emplace_back(endpoint);
  svc::Client subscriber(endpoint);
  // One round trip each: the server is serving every connection before
  // the first epoch is broadcast.
  for (svc::Client& c : bidders) c.stats();
  subscriber.stats();

  const auto start = Clock::now() + kLead;
  const auto end = epochs > 0
                       ? start + kEpochPeriod * epochs + kEpochPeriod / 2
                       : start + measure;
  std::vector<BidLog> logs(kBidConnections);
  std::vector<Seen> seen;
  std::string subscriber_error;
  std::atomic<int> last_epoch{-1};
  std::vector<Clock::time_point> boundary_of(1);
  std::vector<svc::EpochReport> reports;
  std::vector<double> clear_ms;
  double clearing_s = 0.0;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kBidConnections; ++i) {
      const auto k = static_cast<std::size_t>(i);
      threads.emplace_back(send_bids, std::ref(bidders[k]), i, start, end,
                           std::ref(logs[k]));
    }
    threads.emplace_back(subscribe, std::ref(subscriber), std::cref(last_epoch),
                         end + std::chrono::seconds(5), std::ref(seen),
                         std::ref(subscriber_error));

    tight_timer_slack();
    int last = 0;
    try {
      for (int k = 1;; ++k) {
        const auto boundary = start + kEpochPeriod * k;
        if (boundary >= end) break;
        std::this_thread::sleep_until(boundary);
        const int tag = run.tag++;
        const auto t = Clock::now();
        svc::EpochReport report;
        if (run.recorder != nullptr) {
          Recorder::Scope span(*run.recorder, "svc.run_epoch", tag, -1);
          report = daemon.service().run_epoch();
        } else {
          report = daemon.service().run_epoch();
        }
        const double clear_s = seconds_since(t);
        clear_ms.push_back(1e3 * clear_s);
        clearing_s += clear_s;
        result.attempted += 1;
        last = report.epoch;
        boundary_of.resize(static_cast<std::size_t>(report.epoch) + 1);
        boundary_of[static_cast<std::size_t>(report.epoch)] = boundary;
        if (report.aborted) {
          result.failed += 1;
          result.fail("epoch " + std::to_string(report.epoch) + " aborted");
        }
        check_settlement(daemon.network_snapshot(), run.settled_wealth,
                         report.epoch, result);
        if (report.network_digest != run.settled_digest) {
          result.fail("epoch " + std::to_string(report.epoch) +
                      ": a quiescent epoch moved the network");
        }
        if (run.replica != nullptr) {
          TracedEpoch& e = run.traced.emplace_back();
          e.tag = tag;
          e.clear_seconds = report.clear_seconds;
          e.bids_applied = report.bids_applied;
          if (run.replica->replay(tag, e.counts, result) !=
              report.network_digest) {
            result.fail("epoch " + std::to_string(report.epoch) +
                        ": replica digest differs from the daemon's");
          }
        }
      }
    } catch (const std::exception& e) {
      result.failed += 1;
      result.fail(std::string("epoch driver failed: ") + e.what());
    }
    last_epoch.store(last);
  }  // joins the client threads
  reports = daemon.service().reports();
  for (svc::Client& c : bidders) c.close();
  subscriber.close();
  daemon.stop();

  std::vector<double> ack_us, notice_ms;
  for (const BidLog& log : logs) {
    ack_us.insert(ack_us.end(), log.ack_us.begin(), log.ack_us.end());
    run.lag_max_s = std::max(run.lag_max_s, log.lag_max_s);
    result.attempted += log.sent;
    result.failed += log.failed;
    if (!log.error.empty()) result.fail(log.error);
  }
  if (!subscriber_error.empty()) result.fail(subscriber_error);
  for (const Seen& s : seen) {
    const auto e = static_cast<std::size_t>(s.epoch);
    if (e >= boundary_of.size() || e >= reports.size()) {
      result.fail("subscriber saw an epoch the driver never ran");
      continue;
    }
    notice_ms.push_back(1e3 * seconds_between(boundary_of[e], s.at));
    if (s.digest != reports[e].network_digest) {
      result.fail("subscriber digest differs from the daemon's at epoch " +
                  std::to_string(e));
    }
  }
  if (seen.size() + 1 != reports.size()) {
    result.fail("subscriber saw " + std::to_string(seen.size()) + " of " +
                std::to_string(reports.size() - 1) + " epochs");
  }

  auto& m = run.sessions;
  m["setup_s"].push_back(setup_s);
  m["clear_ms_p50"].push_back(quantile(clear_ms, 0.5));
  m["clear_ms_p90"].push_back(quantile(clear_ms, 0.9));
  m["epochs_per_s"].push_back(static_cast<double>(clear_ms.size()) /
                              clearing_s);
  m["ack_us_p50"].push_back(quantile(ack_us, 0.5));
  m["ack_us_p90"].push_back(quantile(ack_us, 0.9));
  m["notice_ms_p50"].push_back(quantile(notice_ms, 0.5));
  run.clear_samples += static_cast<long long>(clear_ms.size());
  run.ack_samples += static_cast<long long>(ack_us.size());
  run.notice_samples += static_cast<long long>(notice_ms.size());
}

}  // namespace

Result run_daemon(const Options& options) {
  Result result;
  const bool short_mode = options.epochs > 0;
  const sim::SimulationConfig config = network_config();
  util::Rng rng(options.seed);
  pcn::Network settled = sim::build_network(config, rng);
  util::Rng probe_rng = rng.fork();
  const std::unique_ptr<core::Mechanism> mechanism =
      core::make_mechanism("m3", core::MechanismOptions{});
  settle(settled, *mechanism, result);
  const double payment_success =
      probe_payment_success(settled, probe_rng, config.max_hops);
  result.counts["payment_success"] = payment_success;

  Run run(settled, result);
  result.digests.push_back(run.settled_digest);
  const std::string base = options.out_dir + "/daemon-" +
                           std::to_string(options.seed);
  std::unique_ptr<Recorder> recorder;
  std::unique_ptr<svc::Journal> replica_journal;
  std::unique_ptr<Replica> replica;
  if (options.trace) {
    recorder = std::make_unique<Recorder>();
    std::filesystem::remove_all(base + "/replica");
    std::filesystem::create_directories(base + "/replica");
    replica_journal = std::make_unique<svc::Journal>(base + "/replica/journal");
    replica = std::make_unique<Replica>(settled, *mechanism,
                                        svc::ServiceConfig{}.policy, 0,
                                        *recorder, replica_journal.get());
    EpochCounts cold;
    if (replica->replay(run.tag++, cold, result) != run.settled_digest) {
      result.fail("cold epoch: replica digest differs from the daemon's");
    }
    run.recorder = recorder.get();
    run.replica = replica.get();
  }

  const int sessions = short_mode ? 1 : kSessions;
  const auto measure = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options.seconds / sessions));
  try {
    for (int s = 0; s < sessions; ++s) {
      run_session(run, measure, options.epochs);
    }
  } catch (const std::exception& e) {
    result.failed += 1;
    result.fail(std::string("session failed: ") + e.what());
  }

  if (options.trace) {
    replica.reset();
    replica_journal.reset();
    const svc::JournalScan scan = svc::scan_journal(base + "/replica/journal");
    if (!scan.clean) result.fail("journal scan not clean: " + scan.note);
    report_layers(*recorder, run.traced, run.lag_max_s, result);
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!recorder->write_chrome_json(path)) result.fail("cannot write " + path);
  } else {
    for (const auto& [name, values] : run.sessions) {
      result.set(name, median(values), kEndToEndUnits.at(name));
    }
    result.set("payment_success", payment_success, "ratio");
  }
  result.samples["clear"] = run.clear_samples;
  result.samples["ack"] = run.ack_samples;
  result.samples["notice"] = run.notice_samples;
  result.samples["sessions"] = sessions;
  std::filesystem::remove_all(base);
  return result;
}

}  // namespace perfbench
