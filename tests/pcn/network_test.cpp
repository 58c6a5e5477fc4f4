#include "pcn/network.hpp"

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace musketeer::pcn {
namespace {

Network line_network() {
  Network net(3);
  net.add_channel(0, 1, 50, 50, 0.001, 0.001);
  net.add_channel(1, 2, 80, 20, 0.001, 0.001);
  return net;
}

TEST(NetworkTest, ChannelBookkeeping) {
  const Network net = line_network();
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_channels(), 2);
  EXPECT_EQ(net.channels_of(1).size(), 2u);
  EXPECT_EQ(net.channels_of(0).size(), 1u);
  EXPECT_EQ(net.total_capacity(), 200);
}

TEST(NetworkTest, NodeWealth) {
  const Network net = line_network();
  EXPECT_EQ(net.node_wealth(0), 50);
  EXPECT_EQ(net.node_wealth(1), 130);
  EXPECT_EQ(net.node_wealth(2), 20);
}

TEST(NetworkTest, WealthIsConservedByTransfers) {
  Network net = line_network();
  const Amount before = net.node_wealth(0) + net.node_wealth(1) +
                        net.node_wealth(2);
  net.channel(0).transfer(0, 30);
  const Amount after = net.node_wealth(0) + net.node_wealth(1) +
                       net.node_wealth(2);
  EXPECT_EQ(before, after);
  EXPECT_EQ(net.total_capacity(), 200);
}

TEST(NetworkTest, DepletedFraction) {
  Network net(2);
  net.add_channel(0, 1, 10, 90, 0.0, 0.0);  // side a depleted at 0.25
  net.add_channel(0, 1, 50, 50, 0.0, 0.0);  // balanced
  EXPECT_DOUBLE_EQ(net.depleted_direction_fraction(0.25), 0.25);
  EXPECT_DOUBLE_EQ(net.depleted_direction_fraction(0.05), 0.0);
}

TEST(NetworkTest, StateDigestTracksStateExactly) {
  Network a = line_network();
  Network b = line_network();
  EXPECT_EQ(a.state_digest(), b.state_digest());

  // Every state field moves the digest; undoing the move restores it.
  const std::uint64_t base = a.state_digest();
  a.channel(0).transfer(0, 10);
  EXPECT_NE(a.state_digest(), base);
  a.channel(0).transfer(1, 10);
  EXPECT_EQ(a.state_digest(), base);

  a.channel(1).lock(1, 5);
  EXPECT_NE(a.state_digest(), base);
  a.channel(1).unlock(1, 5);
  EXPECT_EQ(a.state_digest(), base);

  a.channel(1).disabled = true;
  EXPECT_NE(a.state_digest(), base);
  a.channel(1).disabled = false;
  EXPECT_EQ(a.state_digest(), base);

  // Same multiset of balances on different endpoints is a different state.
  Network c(3);
  c.add_channel(0, 1, 50, 50, 0.001, 0.001);
  c.add_channel(2, 1, 80, 20, 0.001, 0.001);
  EXPECT_NE(c.state_digest(), base);
}

/// FNV-1a over the eight little-endian bytes of every value, one byte
/// per step: the reference state_digest() must equal bit for bit.
std::uint64_t fnv1a_bytes(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The fields state_digest() covers, in its order and with its casts.
std::vector<std::uint64_t> digest_fields(const Network& net) {
  std::vector<std::uint64_t> fields = {
      static_cast<std::uint64_t>(net.num_nodes()),
      static_cast<std::uint64_t>(net.num_channels())};
  for (ChannelId id = 0; id < net.num_channels(); ++id) {
    const Channel& c = net.channel(id);
    fields.push_back(static_cast<std::uint64_t>(c.a));
    fields.push_back(static_cast<std::uint64_t>(c.b));
    fields.push_back(static_cast<std::uint64_t>(c.balance_a));
    fields.push_back(static_cast<std::uint64_t>(c.balance_b));
    fields.push_back(static_cast<std::uint64_t>(c.locked_a));
    fields.push_back(static_cast<std::uint64_t>(c.locked_b));
    fields.push_back(c.disabled ? 1u : 0u);
  }
  return fields;
}

constexpr std::array<std::uint64_t, 14> kEdgeValues = {
    0,
    1,
    255,
    256,
    0xffff,
    0x1'0000,
    0x0100'0000'0000'0001,  // interior zero bytes
    0x00ff'00ff'00ff'00ff,
    0x0000'ff00'0000'0000,
    0x0100'0000'0000'0000,
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
    static_cast<std::uint64_t>(std::int64_t{-1}),
    static_cast<std::uint64_t>(std::int64_t{-256}),
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
};

/// An edge value, or a random value of random byte length whose bytes
/// are zero with probability 0.3.
std::uint64_t random_field(util::Rng& rng) {
  if (rng.bernoulli(0.25)) return kEdgeValues[rng.uniform(kEdgeValues.size())];
  const auto bytes = static_cast<int>(rng.uniform(9));
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    const std::uint64_t byte = rng.bernoulli(0.3) ? 0 : rng.uniform(256);
    v |= byte << (8 * i);
  }
  return v;
}

// state_digest() folds each field's zero high bytes into one multiply;
// it must still equal the byte-by-byte hash on every field value.
TEST(NetworkTest, StateDigestMatchesByteByByteFnv1a) {
  Network one(2);
  one.add_channel(0, 1, 0, 0);
  for (const std::uint64_t v : kEdgeValues) {
    for (const bool disabled : {false, true}) {
      Channel& c = one.channel(0);
      c.a = static_cast<NodeId>(v);
      c.balance_a = static_cast<Amount>(v);
      c.balance_b = static_cast<Amount>(~v);
      c.locked_a = static_cast<Amount>(v >> 8);
      c.locked_b = static_cast<Amount>(v << 8);
      c.disabled = disabled;
      EXPECT_EQ(one.state_digest(), fnv1a_bytes(digest_fields(one)))
          << std::hex << "value 0x" << v << " disabled " << disabled;
    }
  }

  // Node and channel counts of one to three bytes, every field random.
  util::Rng rng(20241019);
  for (const NodeId nodes : {2, 255, 256, 257, 65'537}) {
    Network net(nodes);
    const int channels = nodes == 256 ? 256 : 40;
    for (int i = 0; i < channels; ++i) net.add_channel(0, 1, 0, 0);
    for (int trial = 0; trial < 40; ++trial) {
      for (ChannelId id = 0; id < net.num_channels(); ++id) {
        Channel& c = net.channel(id);
        c.a = static_cast<NodeId>(random_field(rng));
        c.b = static_cast<NodeId>(random_field(rng));
        c.balance_a = static_cast<Amount>(random_field(rng));
        c.balance_b = static_cast<Amount>(random_field(rng));
        c.locked_a = static_cast<Amount>(random_field(rng));
        c.locked_b = static_cast<Amount>(random_field(rng));
        c.disabled = rng.bernoulli(0.5);
      }
      ASSERT_EQ(net.state_digest(), fnv1a_bytes(digest_fields(net)))
          << "nodes " << nodes << " trial " << trial;
    }
  }
}

// Journal records, snapshots and every kEpochResult carry the digest,
// so its values are a persisted format: these constants were computed
// by the byte-by-byte FNV-1a that journals already on disk were written
// with. A change that moves them strands those journals.
TEST(NetworkTest, StateDigestGoldenValues) {
  EXPECT_EQ(line_network().state_digest(), 0x2e37'4b42'0d44'ebe2ull);

  // perfbench's msat-scale network shape, plus a lock and an offline
  // channel so every field kind is non-trivial.
  sim::SimulationConfig config;
  config.num_nodes = 200;
  config.balance_min = 50'000;
  config.balance_max = 200'000;
  config.initial_skew = 0.4;
  config.skew_fraction = 0.5;
  config.seed = 11;
  util::Rng rng(config.seed);
  Network net = sim::build_network(config, rng);
  ASSERT_EQ(net.num_channels(), 397);
  EXPECT_EQ(net.state_digest(), 0x5622'3b3b'f289'2658ull);
  net.channel(3).lock(net.channel(3).a, 1'234);
  net.channel(5).disabled = true;
  EXPECT_EQ(net.state_digest(), 0x2be6'bbc9'b1d3'1fbfull);
}

TEST(NetworkTest, Imbalances) {
  Network net(2);
  net.add_channel(0, 1, 0, 100, 0.0, 0.0);
  net.add_channel(0, 1, 50, 50, 0.0, 0.0);
  const auto imb = net.imbalances();
  ASSERT_EQ(imb.size(), 2u);
  EXPECT_DOUBLE_EQ(imb[0], 1.0);
  EXPECT_DOUBLE_EQ(imb[1], 0.0);
}

}  // namespace
}  // namespace musketeer::pcn
