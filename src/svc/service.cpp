#include "svc/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "core/mechanism_factory.hpp"
#include "obs/obs.hpp"
#include "svc/journal.hpp"
#include "svc/snapshot.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace musketeer::svc {

namespace {

/// EWMA smoothing factor of the admission controller: the weight of the
/// newest epoch's clear time.
constexpr double kAdmissionAlpha = 0.2;

/// Overwrites the truthful bids with the drained submissions: a player's
/// tail override applies to every edge it is tail of, head override to
/// every edge it is head of. Values were validated at intake, players
/// against the network's node count, which is the game's player count;
/// the drain holds one submission per player.
void apply_overrides(const core::Game& game,
                     const std::vector<BidSubmission>& subs,
                     core::BidVector& bids) {
  if (subs.empty()) return;
  std::vector<const BidSubmission*> by_player(
      static_cast<std::size_t>(game.num_players()), nullptr);
  for (const BidSubmission& s : subs) {
    MUSK_ASSERT(s.player >= 0 && s.player < game.num_players());
    by_player[static_cast<std::size_t>(s.player)] = &s;
  }
  for (core::EdgeId e = 0; e < game.num_edges(); ++e) {
    const core::GameEdge& edge = game.edge(e);
    if (const BidSubmission* s = by_player[static_cast<std::size_t>(edge.from)];
        s != nullptr && s->has_tail) {
      bids.tail[static_cast<std::size_t>(e)] = s->tail_bid;
    }
    if (const BidSubmission* s = by_player[static_cast<std::size_t>(edge.to)];
        s != nullptr && s->has_head) {
      bids.head[static_cast<std::size_t>(e)] = s->head_bid;
    }
  }
}

/// One notice per participant, sorted by player. A cycle's participants
/// are the tails of its edges; each player's sums accumulate in cycle
/// order, so they are bit-identical to a fold keyed by player.
std::vector<PlayerNotice> build_notices(const core::Game& game,
                                        const core::Outcome& outcome) {
  std::vector<PlayerNotice> notices;
  if (outcome.cycles.empty()) return notices;
  // Index of each player's notice in `notices`, -1 before its first cycle.
  std::vector<std::int32_t> slot(static_cast<std::size_t>(game.num_players()),
                                 -1);
  for (const core::PricedCycle& pc : outcome.cycles) {
    for (const core::EdgeId e : pc.cycle.edges) {
      const core::PlayerId v = game.edge(e).from;
      std::int32_t& index = slot[static_cast<std::size_t>(v)];
      if (index < 0) {
        index = static_cast<std::int32_t>(notices.size());
        notices.emplace_back().player = v;
      }
      PlayerNotice& notice = notices[static_cast<std::size_t>(index)];
      notice.price += pc.price_of(v);
      notice.cycles += 1;
      notice.volume += pc.cycle.amount;
      notice.delay_bonus += pc.delay_bonus_of(v);
    }
  }
  std::sort(notices.begin(), notices.end(),
            [](const PlayerNotice& a, const PlayerNotice& b) {
              return a.player < b.player;
            });
  return notices;
}

}  // namespace

RebalanceService::RebalanceService(pcn::Network& network,
                                   const core::Mechanism& mechanism,
                                   ServiceConfig config)
    : mechanism_(mechanism),
      config_(config),
      queue_(config.queue_capacity, network.num_nodes()),
      admission_(kAdmissionAlpha,
                 config.epoch_deadline.count() > 0
                     ? std::chrono::duration<double>(config.epoch_deadline)
                           .count()
                     : 0.0),
      executor_(config.threads),
      network_(network),
      epochs_cleared_(config.first_epoch) {
  // With concurrency 1 the executor runs every task inline on the
  // clearing thread.
  solve_context_.set_executor(&executor_);
  // The ladder only matters once a deadline can cancel an attempt, but
  // it is built unconditionally so a bad name fails at construction,
  // not during the first overload.
  for (const std::string& name : config_.degradation_ladder) {
    std::unique_ptr<core::Mechanism> rung =
        core::make_mechanism(name, core::MechanismOptions{});
    if (rung == nullptr) {
      throw std::invalid_argument("unknown degradation-ladder mechanism '" +
                                  name + "'");
    }
    ladder_.push_back(std::move(rung));
  }
  // Recovered state: duplicate detection and the committed-watermark
  // set resume where the pre-crash daemon left them, and the admission
  // controller re-enters at its pre-crash shed level.
  queue_.restore_watermarks(config_.initial_watermarks);
  admission_.seed(config_.initial_ewma_seconds);
  for (const auto& [player, seq] : config_.initial_watermarks) {
    if (seq != 0) applied_watermarks_[player] = seq;
  }
}

RebalanceService::~RebalanceService() { stop(); }

IntakeStatus RebalanceService::submit(const BidSubmission& bid) {
  // Overload shedding, cheapest first: level >= 3 sheds everything,
  // level 2 sheds only players with no bid already pending (a pending
  // player's replacement costs the epoch nothing extra — the drain
  // takes one bid per player either way).
  const int shed = admission_.shed_level();
  if (shed >= 3 || (shed == 2 && !queue_.pending(bid.player))) {
    queue_.count_overload_rejection();
    MUSK_OBS_COUNT("svc.intake.shed_total", 1);
    return IntakeStatus::kRejectedOverload;
  }
  return queue_.submit(bid);
}

pcn::ExtractedGame RebalanceService::extract_snapshot(
    std::uint64_t& pre_digest) {
  const util::OrderedLock net_lock(network_mutex_);
  pre_digest = network_.state_digest();
  return pcn::extract_and_lock(network_, config_.policy);
}

EpochReport RebalanceService::run_epoch() {
  const util::OrderedLock epoch_lock(clear_mutex_);
  // The authoritative clear_seconds clock: one obs::Timer over the
  // whole epoch, which the per-phase spans below split.
  const obs::Timer t0;

  EpochReport report;
  {
    const util::OrderedLock lock(reports_mutex_);
    report.epoch = epochs_cleared_;
  }
  // (pid << 32) | (epoch + 1): correlates the report with its trace
  // spans; +1 keeps a first epoch numbered 0 distinguishable from "no
  // trace" in span args.
  const std::uint64_t trace_id =
      (static_cast<std::uint64_t>(::getpid()) << 32) |
      static_cast<std::uint32_t>(report.epoch + 1);
  report.trace_id = trace_id;
  MUSK_OBS_SPAN(epoch_span, "svc.epoch");
  epoch_span.set_epoch(trace_id);

  MUSK_OBS_SPAN(drain_span, "svc.drain");
  drain_span.set_epoch(trace_id);
  const std::vector<BidSubmission> subs = queue_.drain();
  report.drain_seconds = drain_span.end();

  // Sequenced bids drained into this epoch. They ride the BEGIN record
  // and become committed watermarks only if the epoch settles — bids
  // of a rolled-back or aborted epoch must stay resubmittable after a
  // restart. subs is sorted by player, so the payload is canonical.
  SeqWatermarks epoch_marks;
  for (const BidSubmission& s : subs) {
    if (s.seq != 0) epoch_marks.emplace_back(s.player, s.seq);
  }

  // Snapshot: the extracted game is a value copy whose capacities are
  // HTLC-locked on the live network, so clearing can proceed off-lock.
  // The pre-lock digest is what recovery verifies extraction against.
  MUSK_OBS_SPAN(snapshot_span, "svc.snapshot");
  snapshot_span.set_epoch(trace_id);
  std::uint64_t pre_digest = 0;
  pcn::ExtractedGame extracted = extract_snapshot(pre_digest);
  report.snapshot_seconds = snapshot_span.end();

  report.bids_applied = subs.size();
  report.game_edges = extracted.game.num_edges();
  MUSK_OBS_COUNT("svc.epoch.bids_applied_total", subs.size());

  Journal* const journal = config_.journal;
  try {
    if (journal != nullptr) {
      journal->append_begin(report.epoch, pre_digest, epoch_marks);
    }
    MUSK_FAULT_HIT("svc.crash_after_begin");
  } catch (const util::fault::CrashPoint&) {
    // Simulated kill -9: no cleanup runs. The locks die with the
    // process; recovery rolls the dangling BEGIN back.
    throw;
  } catch (...) {
    const util::OrderedLock net_lock(network_mutex_);
    pcn::release_locks(network_, extracted);
    throw;
  }

  core::Outcome outcome;
  if (extracted.game.num_edges() > 0) {
    core::BidVector bids = extracted.game.truthful_bids();
    apply_overrides(extracted.game, subs, bids);
    const long long builds_before = solve_context_.stats().structure_builds;
    try {
      bool cleared = run_attempt(mechanism_, extracted.game, bids, trace_id,
                                 report, outcome);
      while (!cleared &&
             report.degradation_level < static_cast<int>(ladder_.size())) {
        const int rung = report.degradation_level + 1;
        // The rung is journaled BEFORE it runs: replay must know which
        // mechanism produced the eventual OUTCOME even if the daemon
        // dies mid-rung.
        if (journal != nullptr) {
          journal->append_degraded(
              report.epoch, pre_digest, rung,
              config_.degradation_ladder[static_cast<std::size_t>(rung - 1)]);
        }
        report.degradation_level = rung;
        degraded_total_.fetch_add(1, std::memory_order_relaxed);
        MUSK_OBS_COUNT("svc.epoch.degraded_total", 1);
        MUSK_OBS_GAUGE("svc.epoch.degradation_level",
                       static_cast<double>(rung));
        // Chaos hook: an injected rung failure descends immediately,
        // exactly as if the rung itself had timed out.
        if (MUSK_FAULT_FAIL("degrade.fail")) continue;
        cleared = run_attempt(*ladder_[static_cast<std::size_t>(rung - 1)],
                              extracted.game, bids, trace_id, report, outcome);
      }
      if (!cleared) {
        // Ladder exhausted: the epoch aborts and its number is reused —
        // and run_epoch returns normally, because a deadline abort is an
        // operating mode, not a failure: the scheduler must keep
        // clearing.
        abort_epoch(extracted, report.epoch, pre_digest);
        report.aborted = true;
        report.clear_seconds = t0.seconds();
        aborted_epochs_.fetch_add(1, std::memory_order_relaxed);
        MUSK_OBS_COUNT("svc.epoch.aborted_total", 1);
        admission_.record(report.clear_seconds);
        MUSK_OBS_GAUGE("svc.admission.shed_level",
                       static_cast<double>(admission_.shed_level()));
        return report;
      }
      MUSK_FAULT_HIT("svc.crash_before_commit");
      // The fsync'd OUTCOME record is the commit point: once it returns,
      // this epoch settles — now, or at recovery after a crash.
      if (journal != nullptr) {
        journal->append_outcome(report.epoch, pre_digest, outcome);
      }
    } catch (const util::fault::CrashPoint&) {
      throw;
    } catch (...) {
      // Failed clear (or a commit that could not be made durable): the
      // recorded abort lets recovery tell a clean rollback from a crash.
      abort_epoch(extracted, report.epoch, pre_digest);
      throw;
    }
    MUSK_FAULT_HIT("svc.crash_after_commit");
    pcn::RebalanceStats stats;
    {
      MUSK_OBS_SPAN(settle_span, "svc.settle");
      settle_span.set_epoch(trace_id);
      const util::OrderedLock net_lock(network_mutex_);
      stats = pcn::apply_outcome(network_, extracted, outcome);
      report.settle_seconds = settle_span.end();
    }
    MUSK_FAULT_HIT("svc.crash_mid_settle");
    report.cycles_executed = stats.cycles_executed;
    report.rebalanced_volume = stats.volume;
    report.fees_paid = stats.fees_paid;
    report.max_release_time = stats.max_release_time;
    report.graph_rebuilds = static_cast<int>(
        solve_context_.stats().structure_builds - builds_before);
  }

  {
    // Publish: the notices, the settled digest and the imbalance gauges.
    MUSK_OBS_SPAN(publish_span, "svc.publish");
    publish_span.set_epoch(trace_id);
    report.notices = build_notices(extracted.game, outcome);
    const util::OrderedLock net_lock(network_mutex_);
    report.network_digest = network_.state_digest();
    // Pickhardt-style imbalance telemetry over the settled balances,
    // cached in atomics so the stats endpoint never takes this lock.
    const std::vector<double> imbalances = network_.imbalances();
    const double gini = util::gini(imbalances);
    const double mean = util::mean(imbalances);
    imbalance_gini_.store(gini, std::memory_order_relaxed);
    imbalance_mean_.store(mean, std::memory_order_relaxed);
    MUSK_OBS_GAUGE("pcn.imbalance.gini", gini);
    MUSK_OBS_GAUGE("pcn.imbalance.mean", mean);
  }
  // A SETTLED append failure propagates with the settlement already
  // applied: the journal's committed OUTCOME makes recovery re-apply it
  // exactly once, so restarting the daemon is the correct response.
  if (journal != nullptr) {
    journal->append_settled(report.epoch, report.network_digest);
  }
  // The epoch is fully durable: its drained seqs join the committed
  // watermark set the next snapshot captures.
  for (const auto& [player, seq] : epoch_marks) {
    std::uint32_t& have = applied_watermarks_[player];
    have = std::max(have, seq);
  }
  epochs_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
  if (journal != nullptr && config_.snapshots != nullptr &&
      config_.snapshot_every > 0 &&
      (report.epoch + 1) % config_.snapshot_every == 0) {
    checkpoint(report);
  }

  report.clear_seconds = t0.seconds();
  epoch_span.end();
  admission_.record(report.clear_seconds);
  MUSK_OBS_GAUGE("svc.admission.shed_level",
                 static_cast<double>(admission_.shed_level()));
  MUSK_OBS_COUNT("svc.epoch.total", 1);
  MUSK_OBS_HISTOGRAM("svc.epoch.clear_seconds", report.clear_seconds);
  MUSK_OBS_GAUGE("svc.queue.high_watermark",
                 static_cast<double>(queue_.high_watermark()));

  {
    const util::OrderedLock lock(reports_mutex_);
    ++epochs_cleared_;
    reports_.push_back(report);
  }
  reports_cv_.notify_all();
  for (const auto& callback : callbacks_) callback(report);
  return report;
}

void RebalanceService::abort_epoch(pcn::ExtractedGame& extracted, int epoch,
                                   std::uint64_t pre_digest) {
  {
    const util::OrderedLock net_lock(network_mutex_);
    pcn::release_locks(network_, extracted);
  }
  if (config_.journal == nullptr) return;
  try {
    config_.journal->append_aborted(epoch, pre_digest);
  } catch (const util::fault::CrashPoint&) {
    throw;
  } catch (const std::exception& err) {
    // Recovery treats a dangling BEGIN exactly like an ABORTED epoch
    // (rolled back, number reused); losing the record costs
    // observability, not safety.
    std::fprintf(stderr, "musketeer: failed to journal abort of epoch %d: %s\n",
                 epoch, err.what());
  }
}

void RebalanceService::checkpoint(EpochReport& report) {
  MUSK_OBS_SPAN(span, "svc.checkpoint");
  span.set_epoch(static_cast<std::uint64_t>(report.epoch));
  Journal& journal = *config_.journal;
  SnapshotStore& store = *config_.snapshots;
  try {
    // Roll first: the snapshot's recovery tail then starts at a fresh,
    // empty segment, so the first replayed record (if any) is a BEGIN
    // whose pre-digest equals the snapshot digest.
    journal.roll_segment();
    SnapshotData data;
    data.next_epoch = report.epoch + 1;
    data.first_segment = journal.current_segment();
    data.shed_level = admission_.shed_level();
    data.ewma_seconds = admission_.ewma_seconds();
    data.watermarks.assign(applied_watermarks_.begin(),
                           applied_watermarks_.end());
    std::sort(data.watermarks.begin(), data.watermarks.end());
    {
      const util::OrderedLock net_lock(network_mutex_);
      data.digest = network_.state_digest();
      data.network_bytes = encode_network(network_);
    }
    store.write(data);
    // Segments every retained snapshot has made redundant go away; an
    // invalid snapshot in the set conservatively pins everything.
    journal.compact_below(store.oldest_retained_first_segment());
    report.checkpointed = true;
    snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
    epochs_since_snapshot_.store(0, std::memory_order_relaxed);
    last_snapshot_uptime_.store(uptime_timer_.seconds(),
                                std::memory_order_relaxed);
    MUSK_OBS_COUNT("svc.checkpoint.total", 1);
    MUSK_OBS_HISTOGRAM("svc.checkpoint.seconds", span.end());
  } catch (const util::fault::CrashPoint&) {
    throw;
  } catch (const std::exception& e) {
    // Every epoch this checkpoint covers is already durable in the
    // journal: a failed checkpoint (ENOSPC, read-only FS, torn roll)
    // only means recovery replays a longer tail. Report and keep
    // clearing; the previous snapshots and live segments are untouched.
    MUSK_OBS_COUNT("svc.checkpoint.failed_total", 1);
    std::fprintf(stderr, "musketeer: checkpoint at epoch %d failed: %s\n",
                 report.epoch, e.what());
  }
}

bool RebalanceService::run_attempt(const core::Mechanism& mechanism,
                                   const core::Game& game,
                                   const core::BidVector& bids,
                                   std::uint64_t trace_id,
                                   EpochReport& report,
                                   core::Outcome& outcome) {
  const bool cancellable = config_.epoch_deadline.count() > 0;
  if (cancellable) {
    cancel_token_.arm(util::Deadline::after(config_.epoch_deadline));
    solve_context_.set_cancel(&cancel_token_);
    // Chaos hook: a delay here burns the attempt's entire deadline
    // budget, so `deadline.expire@N=delay:...` deterministically expires
    // attempt N without load (the token is armed already).
    MUSK_FAULT_HIT("deadline.expire");
  }
  try {
    MUSK_OBS_SPAN(solve_span, "svc.clear");
    solve_span.set_epoch(trace_id);
    outcome = mechanism.run(solve_context_, game, bids);
    report.solve_seconds += solve_span.end();
  } catch (const util::SolveCancelled&) {
    solve_context_.set_cancel(nullptr);
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    MUSK_OBS_COUNT("svc.epoch.deadline_exceeded_total", 1);
    return false;
  } catch (...) {
    solve_context_.set_cancel(nullptr);
    throw;
  }
  if (cancellable) solve_context_.set_cancel(nullptr);
  return true;
}

void RebalanceService::start() {
  MUSK_ASSERT_MSG(!started_.exchange(true), "RebalanceService started twice");
  scheduler_ = std::jthread(
      [this](const std::stop_token& stop) { scheduler_loop(stop); });
}

void RebalanceService::stop() {
  queue_.close();
  if (scheduler_.joinable()) {
    scheduler_.request_stop();
    scheduler_cv_.notify_all();
    scheduler_.join();
  }
}

void RebalanceService::on_epoch(
    std::function<void(const EpochReport&)> callback) {
  MUSK_ASSERT_MSG(!started_.load(), "on_epoch must be called before start()");
  // Guarded registration: a manual run_epoch() on another thread reads
  // callbacks_ under the same lock, so a late registration serializes
  // against the in-flight epoch instead of racing its iteration.
  const util::OrderedLock epoch_lock(clear_mutex_);
  callbacks_.push_back(std::move(callback));
}

bool RebalanceService::wait_epochs(int n,
                                   std::chrono::milliseconds timeout) const {
  util::OrderedUniqueLock lock(reports_mutex_);
  return reports_cv_.wait_for(
      lock, timeout, [&] { return epochs_cleared_for_wait() >= n; });
}

int RebalanceService::epochs_cleared() const {
  const util::OrderedLock lock(reports_mutex_);
  return epochs_cleared_;
}

ServiceStats RebalanceService::stats_snapshot() const {
  ServiceStats stats;
  stats.epochs_cleared = epochs_cleared();
  stats.uptime_seconds = uptime_timer_.seconds();
  stats.queue_depth = queue_.size();
  stats.queue_capacity = queue_.capacity();
  stats.queue_high_watermark = queue_.high_watermark();
  if (config_.journal != nullptr) {
    stats.journal_bytes = config_.journal->committed_bytes();
    stats.journal_segments = config_.journal->segment_count();
  }
  stats.imbalance_gini = imbalance_gini_.load(std::memory_order_relaxed);
  stats.imbalance_mean = imbalance_mean_.load(std::memory_order_relaxed);
  stats.solve_threads = executor_.concurrency();
  stats.shed_level = admission_.shed_level();
  stats.ewma_clear_seconds = admission_.ewma_seconds();
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.degraded_epochs = degraded_total_.load(std::memory_order_relaxed);
  stats.aborted_epochs = aborted_epochs_.load(std::memory_order_relaxed);
  stats.snapshots_taken = snapshots_taken_.load(std::memory_order_relaxed);
  stats.epochs_since_snapshot =
      epochs_since_snapshot_.load(std::memory_order_relaxed);
  const double snap_at = last_snapshot_uptime_.load(std::memory_order_relaxed);
  stats.snapshot_age_seconds =
      snap_at < 0.0 ? -1.0 : stats.uptime_seconds - snap_at;
  stats.intake = queue_.counters();
  return stats;
}

std::vector<EpochReport> RebalanceService::reports() const {
  const util::OrderedLock lock(reports_mutex_);
  return reports_;
}

pcn::Network RebalanceService::network_snapshot() const {
  const util::OrderedLock lock(network_mutex_);
  return network_;
}

void RebalanceService::scheduler_loop(const std::stop_token& stop) {
  util::OrderedUniqueLock lock(scheduler_mutex_);
  while (!stop.stop_requested()) {
    // Stop-token-aware timed wait: wakes early on stop() instead of
    // sleeping out the period.
    scheduler_cv_.wait_for(lock, stop, config_.epoch_period,
                           [] { return false; });
    if (stop.stop_requested()) break;
    lock.unlock();
    run_epoch();
    const bool reached_limit =
        config_.max_epochs > 0 && epochs_cleared() >= config_.max_epochs;
    lock.lock();
    if (reached_limit) break;
  }
}

}  // namespace musketeer::svc
