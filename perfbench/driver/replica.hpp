// The traced replay of the clearing path.
//
// A Replica holds a copy of the service's network and, epoch by epoch,
// runs the same public calls the service's run_epoch makes —
// extract_and_lock, Mechanism::run, apply_outcome, state_digest — each
// inside a span, plus the calls the service makes only implicitly and
// the benchmark re-runs to time them: Game::bind_graph on a bench-owned
// SolveContext and SolveContext::decompose on the epoch's circulation.
// Every outcome is audited (check::InvariantAuditor) and certified
// optimal (flow::is_optimal). The settled digest it returns must equal
// the service's EpochReport::network_digest for the same epoch, which
// proves the timed calls are the work the service does.
#pragma once

#include <functional>
#include <memory>

#include "check/invariant_auditor.hpp"
#include "core/mechanism.hpp"
#include "flow/solve_context.hpp"
#include "pcn/rebalancer.hpp"
#include "recorder.hpp"
#include "svc/executor.hpp"
#include "svc/journal.hpp"

namespace perfbench {

/// flow::Executor that times every batch the solve context (or a
/// mechanism) fans out, and every task in it, as flow.solve_batch /
/// flow.task spans around an svc::ParallelExecutor.
class TimingExecutor final : public flow::Executor {
 public:
  TimingExecutor(int threads, Recorder& recorder)
      : inner_(threads), recorder_(recorder) {}

  int concurrency() const override { return inner_.concurrency(); }
  void run(std::size_t count,
           const std::function<void(std::size_t)>& fn) override;
  void set_cancel(util::CancelToken* token) override {
    inner_.set_cancel(token);
  }

  /// Epoch and parent span of the batches that follow.
  void set_scope(int epoch, int parent) {
    epoch_ = epoch;
    parent_ = parent;
  }

 private:
  svc::ParallelExecutor inner_;
  Recorder& recorder_;
  int epoch_ = -1;
  int parent_ = -1;
};

/// Exact per-epoch counts of one replayed epoch.
struct EpochCounts {
  int game_edges = 0;
  int cycles_settled = 0;
  long long solves = 0;
  long long structure_builds = 0;
  long long rebinds = 0;
  long long fallbacks = 0;
  int components = 0;
  std::uint64_t journal_bytes = 0;
};

class Replica {
 public:
  /// `journal` (borrowed, optional) receives BEGIN+OUTCOME+SETTLED for
  /// every replayed epoch, as the service's journal would.
  Replica(pcn::Network network, const core::Mechanism& mechanism,
          const pcn::RebalancePolicy& policy, int threads, Recorder& recorder,
          svc::Journal* journal);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  pcn::Network& network() { return network_; }

  /// Replays one epoch under spans tagged `epoch`; returns the settled
  /// digest. Audit, certificate and decomposition mismatches are
  /// recorded in `result`.
  std::uint64_t replay(int epoch, EpochCounts& counts, Result& result);

 private:
  pcn::Network network_;
  const core::Mechanism& mechanism_;
  const pcn::RebalancePolicy policy_;
  Recorder& recorder_;
  svc::Journal* journal_;
  check::InvariantAuditor auditor_;
  /// Declared before ctx_, which borrows it.
  TimingExecutor executor_;
  flow::SolveContext ctx_;
  flow::SolveContext bind_ctx_;
};

/// One steady epoch of the traced pass, as the workload saw it: the
/// span tag its replay ran under, the service's report timings, and the
/// replica's counts.
struct TracedEpoch {
  int tag = 0;
  double clear_seconds = 0.0;  ///< EpochReport::clear_seconds
  std::size_t bids_applied = 0;
  EpochCounts counts;
};

/// Fills every per-layer metric from the traced pass: times are medians
/// over the steady epochs' span totals, counts are per-epoch means.
void report_layers(const Recorder& recorder,
                   const std::vector<TracedEpoch>& epochs,
                   double gen_lag_max_s, Result& result);

}  // namespace perfbench
