// sim::RebalanceBackend implementation that routes every rebalancing
// round through the epoch-batched service, so E4-style throughput
// simulations exercise exactly the serving code path (queue drain,
// lock-extract snapshot, clear, settle) instead of the historic inline
// call. With an empty intake queue the cleared bids are the truthful
// valuations, so a service-backed simulation is bit-identical to an
// in-process one with the same seed — the equivalence the tests pin
// down.
#pragma once

#include <memory>

#include "sim/engine.hpp"
#include "svc/service.hpp"

namespace musketeer::svc {

class ServiceBackend final : public sim::RebalanceBackend {
 public:
  /// `threads` is ServiceConfig::threads (0 = hardware concurrency,
  /// 1 = M2's exclusion solves in turn on the clearing thread).
  explicit ServiceBackend(const core::Mechanism& mechanism,
                          std::size_t queue_capacity = 1024, int threads = 1);
  ~ServiceBackend() override;

  pcn::RebalanceStats rebalance(pcn::Network& network,
                                const pcn::RebalancePolicy& policy) override;

  /// The underlying service (created on first rebalance; nullptr
  /// before). Exposed so tests can inject bids between sim epochs.
  RebalanceService* service() { return service_.get(); }

 private:
  const core::Mechanism& mechanism_;
  const std::size_t queue_capacity_;
  const int threads_;
  pcn::Network* bound_network_ = nullptr;
  std::unique_ptr<RebalanceService> service_;
};

}  // namespace musketeer::svc
