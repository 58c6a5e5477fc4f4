// Epoch-driven PCN simulation: payments deplete channels, a rebalancing
// mechanism periodically restores them, metrics track the difference.
//
// This is the synthetic stand-in for the deployment evaluation the paper
// does not include (see DESIGN.md): every strategy in
// {none, local, hide&seek, M1..M4} plugs into the same loop, so E4's
// throughput comparison isolates exactly the rebalancing policy.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.hpp"
#include "gen/topology.hpp"
#include "gen/workload.hpp"
#include "pcn/network.hpp"
#include "pcn/rebalancer.hpp"
#include "util/rng.hpp"

namespace musketeer::sim {

struct EpochMetrics {
  int epoch = 0;
  int payments_attempted = 0;
  int payments_succeeded = 0;
  flow::Amount volume_attempted = 0;
  flow::Amount volume_succeeded = 0;
  double routing_fees = 0.0;  // coins paid to forwarders by senders
  /// Depleted channel-direction fraction *before* rebalancing.
  double depleted_fraction = 0.0;
  /// Mean channel imbalance in [0, 1] before rebalancing.
  double mean_imbalance = 0.0;
  /// Gini coefficient of the per-channel imbalances before rebalancing
  /// (Pickhardt-style inequality measure: 0 = every channel equally
  /// (im)balanced, ->1 = imbalance concentrated on a few channels).
  double gini_imbalance = 0.0;
  /// Rebalancing activity in this epoch.
  int rebalance_cycles = 0;
  flow::Amount rebalanced_volume = 0;
  double rebalance_fees = 0.0;

  double success_rate() const {
    return payments_attempted == 0
               ? 1.0
               : static_cast<double>(payments_succeeded) /
                     static_cast<double>(payments_attempted);
  }
};

struct SimulationConfig {
  flow::NodeId num_nodes = 50;
  int ba_attachment = 2;
  /// Initial per-side channel balance range (uniform).
  flow::Amount balance_min = 50;
  flow::Amount balance_max = 200;
  /// Initial imbalance: 0 = uniformly random split; s in (0, 0.5] makes
  /// a channel start at a (0.5-s)/(0.5+s) split with a random rich side
  /// (0.4 => 10/90 splits: a network in need of rebalancing).
  double initial_skew = 0.0;
  /// Fraction of channels the skew applies to; the rest start balanced.
  /// Heterogeneity is what the all-user mechanisms exploit: balanced
  /// channels are the recruitable sellers.
  double skew_fraction = 1.0;
  /// Forwarding fee rate every node charges.
  double forwarding_fee = 0.001;
  /// Routing hop bound for payments (shorter = fewer detours around
  /// depleted channels, so throughput is more sensitive to imbalance).
  int max_hops = 8;
  int epochs = 10;
  int payments_per_epoch = 200;
  gen::WorkloadConfig workload;
  pcn::RebalancePolicy policy;
  /// Rebalance every k-th epoch (1 = every epoch).
  int rebalance_every = 1;
  /// Per-epoch probability that a channel is offline (node churn or
  /// jamming); offline channels neither route nor rebalance that epoch.
  double channel_downtime = 0.0;
  /// When > 1, payments may split into up to this many parts (MPP).
  int max_payment_parts = 1;
  std::uint64_t seed = 1;
};

struct SimulationResult {
  std::vector<EpochMetrics> epochs;

  double overall_success_rate() const;
  flow::Amount total_volume_succeeded() const;
  flow::Amount total_rebalanced_volume() const;
};

/// How the engine performs a rebalancing round. The default
/// (MechanismBackend) extracts the game and runs the mechanism
/// in-process; src/svc/ provides a ServiceBackend that routes the same
/// round through the epoch-batched rebalancing service, so E4-style
/// throughput runs can exercise the serving code path with an
/// otherwise identical payment stream.
class RebalanceBackend {
 public:
  virtual ~RebalanceBackend() = default;

  /// Performs one rebalancing round on the live network state and
  /// reports what was executed.
  virtual pcn::RebalanceStats rebalance(pcn::Network& network,
                                        const pcn::RebalancePolicy& policy) = 0;
};

/// The historic in-process round: extract_and_lock + Mechanism::run +
/// apply_outcome, all on the caller's thread. The backend owns a
/// SolveContext that persists across epochs: when the extracted game's
/// topology is stable (steady state), every round after the first
/// rebinds gains/capacities in place instead of rebuilding the flow
/// graph. Use from one thread at a time, like the rest of the engine.
class MechanismBackend final : public RebalanceBackend {
 public:
  /// `executor` (borrowed, optional) runs the epoch's solve tasks —
  /// attach a svc::ParallelExecutor to fan M2's exclusion solves out
  /// across threads; without one they run in turn on the caller.
  /// Results are bit-identical either way (DESIGN.md §13).
  explicit MechanismBackend(const core::Mechanism& mechanism,
                            flow::Executor* executor = nullptr)
      : mechanism_(&mechanism) {
    ctx_.set_executor(executor);
  }

  pcn::RebalanceStats rebalance(pcn::Network& network,
                                const pcn::RebalancePolicy& policy) override;

 private:
  const core::Mechanism* mechanism_;
  flow::SolveContext ctx_;
};

/// Runs the simulation with the given rebalancing mechanism (nullptr =
/// never rebalance). The same seed produces the same payment stream for
/// every mechanism, so results are directly comparable.
SimulationResult run_simulation(const SimulationConfig& config,
                                const core::Mechanism* mechanism);

/// Backend-parameterized variant (nullptr backend = never rebalance).
/// When `final_network` is non-null it receives the post-simulation
/// network state — the handle the service-equivalence tests compare
/// channel by channel.
SimulationResult run_simulation(const SimulationConfig& config,
                                RebalanceBackend* backend,
                                pcn::Network* final_network);

/// Builds the initial network (BA topology, random balance split) from
/// the config — exposed for tests and examples.
pcn::Network build_network(const SimulationConfig& config, util::Rng& rng);

/// The recovery experiment (the Revive-style evaluation): a freshly
/// skewed network is rebalanced ONCE by the mechanism, then an identical
/// payment batch is replayed; the controlled comparison isolates how much
/// depletion the mechanism undid.
struct RecoveryResult {
  double success_rate = 0.0;
  double depleted_before = 0.0;
  double depleted_after = 0.0;
  double mean_imbalance_after = 0.0;
  flow::Amount rebalanced_volume = 0;
  double rebalance_fees = 0.0;
};
RecoveryResult run_recovery(const SimulationConfig& config,
                            const core::Mechanism* mechanism);

}  // namespace musketeer::sim
