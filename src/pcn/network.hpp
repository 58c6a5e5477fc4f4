// The payment channel network: channels plus adjacency and balance
// conservation bookkeeping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pcn/channel.hpp"

namespace musketeer::pcn {

class Network {
 public:
  explicit Network(NodeId num_nodes);

  /// Opens a channel; returns its id.
  ChannelId add_channel(NodeId a, NodeId b, Amount balance_a, Amount balance_b,
                        double fee_rate_a = 0.0, double fee_rate_b = 0.0);

  NodeId num_nodes() const { return num_nodes_; }
  ChannelId num_channels() const {
    return static_cast<ChannelId>(channels_.size());
  }

  const Channel& channel(ChannelId c) const;
  Channel& channel(ChannelId c);

  /// Channel ids incident to `v`.
  std::span<const ChannelId> channels_of(NodeId v) const;

  /// Total coins held by `v` across all its channels.
  Amount node_wealth(NodeId v) const;

  /// Sum of all channel capacities (invariant under transfers).
  Amount total_capacity() const;

  /// Fraction of channel directions whose sender side holds less than
  /// `threshold` of the capacity (a depletion measure).
  double depleted_direction_fraction(double threshold) const;

  /// Per-channel imbalance |share_a - 0.5| * 2 in [0, 1], one per channel
  /// (0 = perfectly balanced).
  std::vector<double> imbalances() const;

  /// Order-sensitive FNV-1a digest of the full channel state (endpoints,
  /// balances, locks, disabled flags). Two networks that evolved through
  /// the same operations have the same digest, so a service client can
  /// check settled-state equivalence against a local replay from one u64
  /// instead of a channel-by-channel dump.
  ///
  /// The values are a persisted format: journal records, snapshots and
  /// every wire kEpochResult carry them, so they never change. The kernel
  /// folds each field's zero high bytes into one multiply and equals the
  /// byte-by-byte FNV-1a exactly; NetworkTest.StateDigestGoldenValues
  /// pins the values and NetworkTest.StateDigestMatchesByteByByteFnv1a
  /// checks the kernel against the byte loop.
  std::uint64_t state_digest() const;

 private:
  NodeId num_nodes_;
  std::vector<Channel> channels_;
  std::vector<std::vector<ChannelId>> adjacency_;
};

}  // namespace musketeer::pcn
