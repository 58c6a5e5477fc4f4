// The epoch-batched rebalancing service: intake -> snapshot -> clear ->
// settle.
//
// A RebalanceService turns the repo's one-shot mechanism calls into a
// long-running auction server over a live pcn::Network:
//
//   1. intake   — clients submit BidSubmissions concurrently through the
//                 bounded BidQueue (newest-per-player wins, §bid_queue);
//   2. snapshot — at the epoch boundary the scheduler atomically drains
//                 the queue and, under the network mutex, runs
//                 pcn::extract_and_lock: the game's capacities are
//                 HTLC-locked, so the extracted Game is a self-contained
//                 value snapshot whose outcome stays executable no
//                 matter what payments hit the network while clearing;
//   3. clear    — the mechanism runs on the scheduler thread, *off* the
//                 network mutex, against truthful valuations overridden
//                 by the drained bids;
//   4. settle   — apply_outcome executes every priced cycle atomically
//                 under the network mutex and releases leftover locks
//                 (on mechanism failure all locks are released).
//
// Ordering guarantee: a submission acked with intake epoch E is applied
// to exactly the first epoch cleared after its intake (i.e. epoch >= E),
// unless the same player replaced it first.
//
// The service runs epochs either manually (run_epoch(), used by the sim
// backend and tests) or periodically on an internal scheduler thread
// (start()/stop(), used by musketeerd). Epoch completion is observable
// via registered callbacks (socket broadcast) and wait_epochs().
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/mechanism.hpp"
#include "obs/trace.hpp"
#include "pcn/network.hpp"
#include "pcn/rebalancer.hpp"
#include "svc/admission.hpp"
#include "svc/bid_queue.hpp"
#include "svc/executor.hpp"
#include "svc/journal.hpp"
#include "util/deadline.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::svc {

class SnapshotStore;

struct ServiceConfig {
  pcn::RebalancePolicy policy;
  /// Max distinct players pending in the intake queue.
  std::size_t queue_capacity = 1024;
  /// Period of the internal scheduler (periodic mode only; manual
  /// run_epoch() ignores it).
  std::chrono::milliseconds epoch_period{100};
  /// Periodic mode stops itself after this many epochs (0 = run until
  /// stop()).
  int max_epochs = 0;
  /// Optional write-ahead journal (borrowed; must outlive the service).
  /// When set, every epoch is journaled BEGIN -> OUTCOME -> SETTLED with
  /// the OUTCOME fsync'd before settlement, so a crashed daemon recovers
  /// via svc::recover. A journal append failure aborts the epoch
  /// (locks released) and propagates — the service must not keep
  /// settling epochs it cannot make durable.
  Journal* journal = nullptr;
  /// Epoch number of the first epoch this service clears. Recovery sets
  /// it to RecoveryReport::next_epoch so epoch numbering continues
  /// seamlessly across a restart.
  int first_epoch = 0;
  /// Solve concurrency: threads (including the clearing thread) M2's
  /// VCG exclusion solves fan out across, forked per batch; every other
  /// solve is one task. 0 = hardware concurrency; 1 = in turn on the
  /// clearing thread. Outcomes are bit-identical at any value — see
  /// DESIGN.md §13.
  int threads = 0;
  /// Per-attempt clearing deadline (0 = disabled, the legacy run-to-
  /// completion behavior). When an attempt's solve exceeds it, the solve
  /// is cooperatively cancelled (util::CancelToken through the flow
  /// layer) and the epoch retries down `degradation_ladder`; once the
  /// ladder is exhausted the epoch is journaled ABORTED, its locks are
  /// released, and its number is reused — run_epoch returns a report
  /// flagged `aborted` instead of throwing. A deadline also turns on
  /// admission control: intake sheds bids as the EWMA of recent clear
  /// times nears it. See DESIGN.md §14.
  std::chrono::milliseconds epoch_deadline{0};
  /// Mechanism names (core::make_mechanism spelling) tried in order
  /// after the primary mechanism times out, each under a fresh
  /// deadline. Each rung is journaled as a DEGRADED record so replay
  /// reproduces the degraded outcome bit for bit. The default is M1
  /// alone: one solve and no bids (m2-minfee first runs all of M2, one
  /// solve plus one per buyer, so it rarely fits where the primary did
  /// not). Unknown names throw std::invalid_argument at construction.
  std::vector<std::string> degradation_ladder{"m1"};
  /// Checkpointing (DESIGN.md §15): after every `snapshot_every`
  /// settled epochs the service rolls the journal to a fresh segment,
  /// writes a snapshot of the full recovery state, and compacts away
  /// the segments no retained snapshot needs. Requires both `journal`
  /// and `snapshots`; 0 disables checkpointing. A failed checkpoint is
  /// reported but never fatal — the epoch it followed is already
  /// durable in the journal.
  int snapshot_every = 0;
  /// Snapshot store beside the journal (borrowed; must outlive the
  /// service). nullptr disables checkpointing.
  SnapshotStore* snapshots = nullptr;
  /// Recovered intake watermarks (RecoveryReport::watermarks): seeds
  /// duplicate detection and the committed-watermark set the next
  /// snapshot captures.
  SeqWatermarks initial_watermarks;
  /// Recovered admission EWMA (RecoveryReport::ewma_seconds): a
  /// restarted overloaded daemon resumes shedding instead of re-warming
  /// from zero.
  double initial_ewma_seconds = 0.0;
};

/// Per-player settlement notification for one epoch: what the node pays
/// or receives and which cycles moved its liquidity.
struct PlayerNotice {
  core::PlayerId player = 0;
  /// Net price across the epoch's cycles (>0 pays, <0 receives).
  double price = 0.0;
  /// Cycles of this epoch the player participated in.
  int cycles = 0;
  /// Total flow of those cycles.
  flow::Amount volume = 0;
  double delay_bonus = 0.0;
};

/// Lock-free service state snapshot for the kStatsRequest endpoint and
/// musk_stats: everything here is readable while an epoch clears.
struct ServiceStats {
  int epochs_cleared = 0;
  double uptime_seconds = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t queue_high_watermark = 0;
  /// Committed journal bytes (0 when running without a journal).
  std::uint64_t journal_bytes = 0;
  /// Pickhardt-style network imbalance, refreshed at each settle (0
  /// before the first epoch): Gini coefficient and mean of the
  /// per-channel imbalances.
  double imbalance_gini = 0.0;
  double imbalance_mean = 0.0;
  /// Solve concurrency the service was configured with (resolved: never
  /// 0).
  int solve_threads = 1;
  /// v5 health fields: overload shed level (0-3), the admission
  /// controller's EWMA of epoch clear time, and the degradation
  /// counters (see DESIGN.md §14).
  int shed_level = 0;
  double ewma_clear_seconds = 0.0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded_epochs = 0;
  std::uint64_t aborted_epochs = 0;
  IntakeCounters intake;
  /// v6 checkpoint health: seconds since the last successful snapshot
  /// (-1 = none this process), epochs settled since it, snapshots taken
  /// by this process, and live journal segments (0 without a journal).
  double snapshot_age_seconds = -1.0;
  std::uint64_t epochs_since_snapshot = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t journal_segments = 0;
};

struct EpochReport {
  int epoch = 0;
  /// Distinct player submissions drained into this epoch.
  std::size_t bids_applied = 0;
  int game_edges = 0;
  int cycles_executed = 0;
  flow::Amount rebalanced_volume = 0;
  double fees_paid = 0.0;
  double max_release_time = 0.0;
  /// Wall-clock seconds from queue drain to settled network.
  double clear_seconds = 0.0;
  /// Correlates this report with its spans in a trace file:
  /// (pid << 32) | (epoch + 1). Stable across the epoch's spans, unique
  /// across concurrently-traced daemons. 0 when tracing never ran.
  std::uint64_t trace_id = 0;
  /// Per-phase breakdown of clear_seconds, measured by the epoch
  /// tracer's spans (which measure whether or not tracing is on).
  double drain_seconds = 0.0;     ///< queue drain
  double snapshot_seconds = 0.0;  ///< extract_and_lock under network mutex
  double solve_seconds = 0.0;     ///< mechanism run (bind+solve+price)
  double settle_seconds = 0.0;    ///< apply_outcome under network mutex
  /// flow::Graph structure (re)builds the clearing solve context
  /// performed for this epoch. The first epoch builds the graph once; in
  /// a quiescent steady state (stable extracted topology) every later
  /// epoch rebinds in place and reports 0 — the zero-rebuild guarantee.
  /// Not part of the wire protocol (local observability only).
  int graph_rebuilds = 0;
  /// Degradation ladder rungs this epoch descended before clearing
  /// (0 = the primary mechanism cleared within its deadline). Rung k
  /// means the epoch cleared with degradation_ladder[k-1].
  int degradation_level = 0;
  /// True when the ladder was exhausted: the epoch was journaled
  /// ABORTED, its locks released, and its number will be reused by the
  /// next clear. The report carries no outcome fields.
  bool aborted = false;
  /// True when this epoch's settlement was followed by a successful
  /// checkpoint (segment roll + snapshot + compaction).
  bool checkpointed = false;
  /// pcn::Network::state_digest() of the settled network, taken under
  /// the network lock right after settlement: one u64 a client can check
  /// against a local replay to verify it observed the same state.
  std::uint64_t network_digest = 0;
  /// One entry per participating player, sorted by player id.
  std::vector<PlayerNotice> notices;
};

class RebalanceService {
 public:
  /// The service operates on (and synchronizes) the caller's network;
  /// the network must outlive the service.
  RebalanceService(pcn::Network& network, const core::Mechanism& mechanism,
                   ServiceConfig config);
  ~RebalanceService();

  RebalanceService(const RebalanceService&) = delete;
  RebalanceService& operator=(const RebalanceService&) = delete;

  /// Thread-safe bid intake (validated, bounded; see BidQueue).
  IntakeStatus submit(const BidSubmission& bid);

  /// Clears one epoch synchronously on the calling thread. Thread-safe
  /// against intake and concurrent callers (epochs serialize).
  EpochReport run_epoch()
      MUSK_EXCLUDES(clear_mutex_, network_mutex_, reports_mutex_);

  /// Starts the periodic scheduler thread. Callbacks must be registered
  /// before start().
  void start();

  /// Stops the scheduler (idempotent), closes intake, and waits for an
  /// in-flight epoch to finish settling.
  void stop();

  /// Registers an epoch-completion callback, invoked on the clearing
  /// thread after settlement. Must be called before start(); serialized
  /// against manual run_epoch() callers under the epoch lock.
  void on_epoch(std::function<void(const EpochReport&)> callback)
      MUSK_EXCLUDES(clear_mutex_);

  /// Blocks until at least `n` epochs have cleared (or the deadline
  /// passes); returns whether the target was reached.
  bool wait_epochs(int n, std::chrono::milliseconds timeout) const
      MUSK_EXCLUDES(reports_mutex_);

  int epochs_cleared() const MUSK_EXCLUDES(reports_mutex_);
  IntakeCounters intake_counters() const { return queue_.counters(); }
  std::size_t queue_capacity() const { return queue_.capacity(); }
  const pcn::RebalancePolicy& policy() const { return config_.policy; }

  /// Current overload shed level (0-3; 0 with no deadline configured).
  int shed_level() const { return admission_.shed_level(); }

  /// Scales a base kRetryAfter hint by the shed level so clients of a
  /// hot server back off harder (lock-free; called by the socket server
  /// on its shedding paths).
  std::uint32_t retry_after_hint(std::uint32_t base_ms) const {
    return admission_.scale_retry_after(base_ms);
  }

  /// Live service state for the stats endpoint. Safe to call from any
  /// thread at any time: every field comes from an atomic or a
  /// short-critical-section accessor — never the epoch or network lock.
  ServiceStats stats_snapshot() const MUSK_EXCLUDES(reports_mutex_);

  /// All completed epoch reports, oldest first (copy).
  std::vector<EpochReport> reports() const MUSK_EXCLUDES(reports_mutex_);

  /// Copy of the network state under the service lock (tests, status).
  pcn::Network network_snapshot() const MUSK_EXCLUDES(network_mutex_);

 private:
  void scheduler_loop(const std::stop_token& stop)
      MUSK_EXCLUDES(scheduler_mutex_, clear_mutex_);

  /// One mechanism attempt under the armed token; returns false when
  /// the attempt's deadline cancelled it, true when `outcome` holds the
  /// cleared result. Any other exception propagates to run_epoch's
  /// abort path unchanged.
  bool run_attempt(const core::Mechanism& mechanism, const core::Game& game,
                   const core::BidVector& bids, std::uint64_t trace_id,
                   EpochReport& report, core::Outcome& outcome)
      MUSK_REQUIRES(clear_mutex_);

  /// Drains + HTLC-locks the epoch's game under the network lock and
  /// reports the pre-extraction digest (what recovery verifies against).
  pcn::ExtractedGame extract_snapshot(std::uint64_t& pre_digest)
      MUSK_EXCLUDES(network_mutex_);

  /// All-or-nothing abort of an epoch that will not settle: releases
  /// every pre-lock `extracted` took, so no liquidity leaks, then
  /// journals ABORTED best effort. CrashPoint (simulated kill -9)
  /// propagates; a failed append is reported and swallowed.
  void abort_epoch(pcn::ExtractedGame& extracted, int epoch,
                   std::uint64_t pre_digest)
      MUSK_REQUIRES(clear_mutex_) MUSK_EXCLUDES(network_mutex_);

  /// One checkpoint: rolls the journal to a fresh segment, snapshots
  /// the full recovery state, and compacts the segments no retained
  /// snapshot needs. Runs after append_settled when the cadence is due.
  /// CrashPoint (simulated kill -9) propagates; every other failure is
  /// reported and swallowed — the settled epoch is already durable, a
  /// failed checkpoint only lengthens the next recovery's tail.
  void checkpoint(EpochReport& report)
      MUSK_REQUIRES(clear_mutex_) MUSK_EXCLUDES(network_mutex_);

  /// Condition-variable predicate read. The analysis checks a predicate
  /// lambda out of context and cannot see that wait_for re-acquires
  /// reports_mutex_ around every evaluation, so the read lives in this
  /// analysis-exempt helper instead of the lambda body.
  int epochs_cleared_for_wait() const MUSK_NO_THREAD_SAFETY_ANALYSIS {
    return epochs_cleared_;
  }

  const core::Mechanism& mechanism_;
  const ServiceConfig config_;
  /// Degradation ladder, built from config_.degradation_ladder names at
  /// construction (so a typo fails fast, not mid-overload). Tried in
  /// order after the primary mechanism times out.
  std::vector<std::unique_ptr<core::Mechanism>> ladder_;
  BidQueue queue_;
  /// EWMA-driven overload shedding (inert when epoch_deadline is 0).
  AdmissionController admission_;

  /// Serializes epochs so manual and periodic clears cannot interleave.
  /// Rank note: epoch callbacks (socket broadcast) run with this held,
  /// so the server's locks rank *below* it (DESIGN.md §11).
  util::OrderedMutex clear_mutex_{util::LockRank::kService, "svc.clear"};
  /// Runs the epoch's solve tasks, forking threads only for a batch of
  /// more than one (M2's exclusions). Only the clearing thread runs
  /// batches, under clear_mutex_; stats_snapshot() reads its const
  /// concurrency() lock-free, so clear_mutex_ does not guard it.
  /// Declared before solve_context_, which borrows it.
  ParallelExecutor executor_;  // musk-lint: allow(unguarded-member)
  /// The epoch pipeline's solve context, reused across epochs so a
  /// steady-state clear performs zero flow-graph rebuilds and zero
  /// solver allocations. Owned by the clearing step.
  flow::SolveContext solve_context_ MUSK_GUARDED_BY(clear_mutex_);
  /// Epoch-completion callbacks. Registration is asserted to happen
  /// before start(), but manual run_epoch() callers may race a late
  /// on_epoch(), so the vector itself is guarded by the epoch lock.
  std::vector<std::function<void(const EpochReport&)>> callbacks_
      MUSK_GUARDED_BY(clear_mutex_);
  /// Committed intake watermarks: per player, the highest seq drained
  /// into an epoch that reached its OUTCOME commit point. Seeded from
  /// recovery, merged at each commit (never for rolled-back or aborted
  /// epochs), captured into every snapshot.
  std::unordered_map<core::PlayerId, std::uint32_t> applied_watermarks_
      MUSK_GUARDED_BY(clear_mutex_);

  /// Guards the live network (extraction + settlement + snapshots).
  mutable util::OrderedMutex network_mutex_{util::LockRank::kNetwork,
                                            "svc.network"};
  pcn::Network& network_ MUSK_GUARDED_BY(network_mutex_);

  mutable util::OrderedMutex reports_mutex_{util::LockRank::kReports,
                                            "svc.reports"};
  std::vector<EpochReport> reports_ MUSK_GUARDED_BY(reports_mutex_);
  int epochs_cleared_ MUSK_GUARDED_BY(reports_mutex_);
  mutable util::OrderedCondVar reports_cv_;

  util::OrderedMutex scheduler_mutex_{util::LockRank::kScheduler,
                                      "svc.scheduler"};
  util::OrderedCondVar scheduler_cv_;

  std::jthread scheduler_;
  std::atomic<bool> started_{false};

  /// Epoch cancellation: armed per attempt by the clearing thread and
  /// fired by the attempt's own deadline when a solver polls it. Only
  /// the flag inside is shared with executor tasks — see CancelToken.
  util::CancelToken cancel_token_;
  /// Degradation counters, mirrored into ServiceStats lock-free.
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> degraded_total_{0};
  std::atomic<std::uint64_t> aborted_epochs_{0};

  /// Service start time (uptime for the stats endpoint).
  const obs::Timer uptime_timer_;
  /// Imbalance gauges refreshed under the network lock at each settle;
  /// atomics so stats_snapshot() reads them lock-free.
  std::atomic<double> imbalance_gini_{0.0};
  std::atomic<double> imbalance_mean_{0.0};
  /// Checkpoint health, mirrored lock-free into stats_snapshot():
  /// snapshots taken by this process, epochs settled since the last
  /// one, and the uptime-seconds at which it completed (-1 = never).
  std::atomic<std::uint64_t> snapshots_taken_{0};
  std::atomic<std::uint64_t> epochs_since_snapshot_{0};
  std::atomic<double> last_snapshot_uptime_{-1.0};
};

}  // namespace musketeer::svc
