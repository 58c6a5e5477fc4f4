// Shared helpers for the service test suite.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "pcn/network.hpp"
#include "sim/engine.hpp"
#include "svc/journal.hpp"
#include "svc/snapshot.hpp"
#include "util/rng.hpp"

namespace musketeer::svc::testutil {

/// Removes every on-disk artifact a journal base can own — rotated
/// segments, snapshots, stray tmp files — so a test starts
/// from a genuinely fresh journal (std::remove on the bare base stopped
/// being enough when the journal became segmented).
inline void remove_journal_files(const std::string& base) {
  for (const std::uint64_t seq : list_segments(base)) {
    std::remove(segment_path(base, seq).c_str());
  }
  for (const std::uint64_t seq : list_snapshots(base)) {
    std::remove(snapshot_path(base, seq).c_str());
  }
  std::remove((base + ".snap.tmp").c_str());
  std::remove(base.c_str());
}

/// Threads this process runs right now (the entries of /proc/self/task).
inline int thread_count() {
  int threads = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    static_cast<void>(task);
    ++threads;
  }
  return threads;
}

/// Waits up to `limit` for the process to run at most `want` threads: a
/// joined thread's /proc entry can outlive the join by a moment.
inline bool threads_settle_at_most(
    int want, std::chrono::milliseconds limit = std::chrono::seconds(5)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (thread_count() > want) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    ::poll(nullptr, 0, 1);
  }
  return true;
}

/// The whole file (empty, and a test failure, when it cannot be read).
inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Channel-by-channel exact equality, the bar the ISSUE's end-to-end
/// acceptance sets: balances are integer coins, so a service-backed run
/// must match the single-threaded one to the coin, not approximately.
inline void expect_networks_equal(const pcn::Network& a,
                                  const pcn::Network& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_channels(), b.num_channels());
  for (pcn::ChannelId c = 0; c < a.num_channels(); ++c) {
    const pcn::Channel& x = a.channel(c);
    const pcn::Channel& y = b.channel(c);
    EXPECT_EQ(x.a, y.a) << "channel " << c;
    EXPECT_EQ(x.b, y.b) << "channel " << c;
    EXPECT_EQ(x.balance_a, y.balance_a) << "channel " << c;
    EXPECT_EQ(x.balance_b, y.balance_b) << "channel " << c;
    EXPECT_EQ(x.locked_a, y.locked_a) << "channel " << c;
    EXPECT_EQ(x.locked_b, y.locked_b) << "channel " << c;
    EXPECT_EQ(x.disabled, y.disabled) << "channel " << c;
  }
}

/// Two calls with the same config produce identical networks (the rng
/// is seeded per call), so each side of an equivalence test gets its
/// own copy to mutate.
inline pcn::Network make_network(const sim::SimulationConfig& config) {
  util::Rng rng(config.seed);
  return sim::build_network(config, rng);
}

inline sim::SimulationConfig small_config(std::uint64_t seed = 7) {
  sim::SimulationConfig config;
  config.num_nodes = 24;
  config.initial_skew = 0.4;
  config.seed = seed;
  return config;
}

}  // namespace musketeer::svc::testutil
