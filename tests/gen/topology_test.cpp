#include "gen/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

namespace musketeer::gen {
namespace {

// Union-find connectivity check.
bool connected(NodeId n, const Topology& channels) {
  std::vector<NodeId> parent(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  std::function<NodeId(NodeId)> find = [&](NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  for (const auto& [a, b] : channels) {
    parent[static_cast<std::size_t>(find(a))] = find(b);
  }
  for (NodeId i = 1; i < n; ++i) {
    if (find(i) != find(0)) return false;
  }
  return true;
}

std::vector<int> degrees(NodeId n, const Topology& channels) {
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  for (const auto& [a, b] : channels) {
    ++deg[static_cast<std::size_t>(a)];
    ++deg[static_cast<std::size_t>(b)];
  }
  return deg;
}

TEST(TopologyTest, ErdosRenyiDensityMatchesP) {
  util::Rng rng(1);
  const Topology t = erdos_renyi(60, 0.1, rng);
  const double expected = 0.1 * 60 * 59 / 2;
  EXPECT_NEAR(static_cast<double>(t.size()), expected, expected * 0.35);
  for (const auto& [a, b] : t) {
    EXPECT_NE(a, b);
    EXPECT_LT(a, 60);
  }
}

TEST(TopologyTest, ErdosRenyiExtremes) {
  util::Rng rng(2);
  EXPECT_TRUE(erdos_renyi(10, 0.0, rng).empty());
  EXPECT_EQ(erdos_renyi(10, 1.0, rng).size(), 45u);
}

TEST(TopologyTest, BarabasiAlbertIsConnectedWithRightEdgeCount) {
  util::Rng rng(3);
  const NodeId n = 100;
  const int attach = 2;
  const Topology t = barabasi_albert(n, attach, rng);
  EXPECT_TRUE(connected(n, t));
  // Seed clique C(3,2)=3 edges + 2 per newcomer.
  EXPECT_EQ(t.size(), 3u + 2u * (100 - 3));
}

TEST(TopologyTest, BarabasiAlbertIsHeavyTailed) {
  util::Rng rng(4);
  const NodeId n = 300;
  const Topology t = barabasi_albert(n, 2, rng);
  const auto deg = degrees(n, t);
  const int max_deg = *std::max_element(deg.begin(), deg.end());
  // Scale-free hubs: the max degree should far exceed the mean (~4).
  EXPECT_GT(max_deg, 12);
}

TEST(TopologyTest, WattsStrogatzKeepsDegreeScale) {
  util::Rng rng(5);
  const NodeId n = 50;
  const Topology t = watts_strogatz(n, 2, 0.1, rng);
  EXPECT_GE(t.size(), 90u);  // ~2n edges, minus dedupe collisions
  EXPECT_LE(t.size(), 100u);
}

TEST(TopologyTest, RingShape) {
  const Topology t = ring(5);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_TRUE(connected(5, t));
  const auto deg = degrees(5, t);
  for (int d : deg) EXPECT_EQ(d, 2);
}

TEST(TopologyTest, GridShape) {
  const Topology t = grid(3, 4);
  // 3*3 horizontal + 2*4 vertical = 17.
  EXPECT_EQ(t.size(), 17u);
  EXPECT_TRUE(connected(12, t));
}

TEST(TopologyTest, DedupeRemovesDuplicatesAndLoops) {
  Topology t{{1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const Topology d = dedupe(t);
  EXPECT_EQ(d.size(), 2u);
  const std::set<ChannelEndpoints> expected{{0, 1}, {1, 2}};
  EXPECT_EQ(std::set<ChannelEndpoints>(d.begin(), d.end()), expected);
}

}  // namespace
}  // namespace musketeer::gen
