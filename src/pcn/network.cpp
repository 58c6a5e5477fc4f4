#include "pcn/network.hpp"

#include <array>
#include <bit>
#include <cmath>

namespace musketeer::pcn {

Network::Network(NodeId num_nodes)
    : num_nodes_(num_nodes),
      adjacency_(static_cast<std::size_t>(num_nodes)) {
  MUSK_ASSERT(num_nodes >= 0);
}

ChannelId Network::add_channel(NodeId a, NodeId b, Amount balance_a,
                               Amount balance_b, double fee_rate_a,
                               double fee_rate_b) {
  MUSK_ASSERT(a >= 0 && a < num_nodes_);
  MUSK_ASSERT(b >= 0 && b < num_nodes_);
  MUSK_ASSERT(a != b);
  MUSK_ASSERT(balance_a >= 0 && balance_b >= 0);
  MUSK_ASSERT(fee_rate_a >= 0.0 && fee_rate_b >= 0.0);
  const ChannelId id = num_channels();
  channels_.push_back(Channel{a, b, balance_a, balance_b, fee_rate_a,
                              fee_rate_b});
  adjacency_[static_cast<std::size_t>(a)].push_back(id);
  adjacency_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

const Channel& Network::channel(ChannelId c) const {
  MUSK_ASSERT(c >= 0 && c < num_channels());
  return channels_[static_cast<std::size_t>(c)];
}

Channel& Network::channel(ChannelId c) {
  MUSK_ASSERT(c >= 0 && c < num_channels());
  return channels_[static_cast<std::size_t>(c)];
}

std::span<const ChannelId> Network::channels_of(NodeId v) const {
  MUSK_ASSERT(v >= 0 && v < num_nodes_);
  return adjacency_[static_cast<std::size_t>(v)];
}

Amount Network::node_wealth(NodeId v) const {
  Amount wealth = 0;
  for (ChannelId c : channels_of(v)) wealth += channel(c).balance_of(v);
  return wealth;
}

Amount Network::total_capacity() const {
  Amount total = 0;
  for (const Channel& c : channels_) total += c.capacity();
  return total;
}

double Network::depleted_direction_fraction(double threshold) const {
  if (channels_.empty()) return 0.0;
  int depleted = 0;
  for (const Channel& c : channels_) {
    depleted += (c.balance_share(c.a) < threshold);
    depleted += (c.balance_share(c.b) < threshold);
  }
  return static_cast<double>(depleted) /
         (2.0 * static_cast<double>(channels_.size()));
}

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// kFnvPrimePowers[k] = kFnvPrime^k mod 2^64: k FNV-1a steps over zero
/// bytes, since (h ^ 0) * prime is a bare multiply.
constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

}  // namespace

std::uint64_t Network::state_digest() const {
  // FNV-1a over the little-endian bytes of every state field, in channel
  // order. Fee rates are static configuration, not evolving state, so
  // they stay out of the digest. The values are a persisted format
  // (journal, snapshots, wire); mix() folds a field's zero high bytes
  // into one multiply by a power of the prime, which yields exactly the
  // byte-by-byte hash. NetworkTest.StateDigestGoldenValues
  // (tests/pcn/network_test.cpp) pins the values.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    const int bytes = (64 - std::countl_zero(v) + 7) / 8;
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= kFnvPrime;
    }
    h *= kFnvPrimePowers[static_cast<std::size_t>(8 - bytes)];
  };
  mix(static_cast<std::uint64_t>(num_nodes_));
  mix(static_cast<std::uint64_t>(channels_.size()));
  for (const Channel& c : channels_) {
    mix(static_cast<std::uint64_t>(c.a));
    mix(static_cast<std::uint64_t>(c.b));
    mix(static_cast<std::uint64_t>(c.balance_a));
    mix(static_cast<std::uint64_t>(c.balance_b));
    mix(static_cast<std::uint64_t>(c.locked_a));
    mix(static_cast<std::uint64_t>(c.locked_b));
    mix(c.disabled ? 1u : 0u);
  }
  return h;
}

std::vector<double> Network::imbalances() const {
  std::vector<double> out;
  out.reserve(channels_.size());
  for (const Channel& c : channels_) {
    out.push_back(std::abs(c.balance_share(c.a) - 0.5) * 2.0);
  }
  return out;
}

}  // namespace musketeer::pcn
