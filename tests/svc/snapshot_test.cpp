// Snapshot store: network codec round-trips, atomic publication and
// pruning, end-to-end validation (checksum + digest re-verification),
// and checkpoint-aware recovery precedence — newest valid snapshot,
// older snapshot on corruption, genesis only while segment 0 survives.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "core/m3_double_auction.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::small_config;

std::string temp_base(const std::string& name) {
  const std::string path = ::testing::TempDir() + "musk_snapshot_" + name;
  testutil::remove_journal_files(path);
  return path;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x40));
}

TEST(Snapshot, NetworkCodecRoundTripsEverythingTheDigestCovers) {
  pcn::Network network = make_network(small_config(7));
  // Exercise the fields beyond plain balances: locks and disabled flags
  // are part of state_digest() and must survive the round trip.
  network.channel(0).locked_a = 17;
  network.channel(0).locked_b = 3;
  network.channel(1).disabled = true;

  const std::string bytes = encode_network(network);
  const pcn::Network decoded = decode_network(bytes);
  EXPECT_EQ(decoded.state_digest(), network.state_digest());
  expect_networks_equal(decoded, network);

  // Malformed bytes are a structured decode error, never an abort.
  EXPECT_THROW(decode_network(std::string_view(bytes).substr(0, 10)),
               core::CodecError);
  EXPECT_THROW(decode_network(std::string_view()), core::CodecError);
}

TEST(Snapshot, WriteReadBackAndPruneToKeep) {
  const std::string base = temp_base("roundtrip");
  const pcn::Network network = make_network(small_config(7));

  SnapshotStore store(base, /*keep=*/2);
  EXPECT_TRUE(store.entries().empty());
  EXPECT_EQ(store.oldest_retained_first_segment(), 0u);

  SnapshotData data;
  data.next_epoch = 3;
  data.digest = network.state_digest();
  data.first_segment = 1;
  data.watermarks = {{2, 9}, {5, 1}};
  data.shed_level = 2;
  data.ewma_seconds = 0.25;
  data.network_bytes = encode_network(network);
  store.write(data);

  for (int next = 4; next <= 5; ++next) {
    data.next_epoch = next;
    data.first_segment = static_cast<std::uint64_t>(next) - 2;
    store.write(data);
  }
  // keep=2: the first snapshot was pruned, the newest two survive.
  ASSERT_EQ(store.entries().size(), 2u);
  EXPECT_EQ(list_snapshots(base), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(store.entries()[0].next_epoch, 4);
  EXPECT_EQ(store.entries()[1].next_epoch, 5);
  EXPECT_TRUE(store.entries()[0].valid);
  EXPECT_TRUE(store.entries()[1].valid);
  // The compaction bound is what the *oldest retained* snapshot needs.
  EXPECT_EQ(store.oldest_retained_first_segment(), 2u);

  // Full payload round-trip through the validating reader.
  SnapshotData read;
  std::string error;
  ASSERT_TRUE(SnapshotStore::read_file(store.entries()[1].path, &read,
                                       &error))
      << error;
  EXPECT_EQ(read.next_epoch, 5);
  EXPECT_EQ(read.first_segment, 3u);
  EXPECT_EQ(read.watermarks, data.watermarks);
  EXPECT_EQ(read.shed_level, 2);
  EXPECT_DOUBLE_EQ(read.ewma_seconds, 0.25);
  EXPECT_EQ(decode_network(read.network_bytes).state_digest(), data.digest);

  // A fresh store scan agrees with the writer's view.
  SnapshotStore rescanned(base);
  ASSERT_EQ(rescanned.entries().size(), 2u);
  EXPECT_TRUE(rescanned.entries()[1].valid);
}

TEST(Snapshot, ListingRoundTripsEverySnapshotPath) {
  const std::string base = temp_base("listing");
  const std::vector<std::uint64_t> seqs{0, 999999, 1000000, 123456789012};
  for (const std::uint64_t seq : seqs) {
    std::ofstream touch(snapshot_path(base, seq));
  }
  EXPECT_EQ(list_snapshots(base), seqs);
}

TEST(Snapshot, CorruptOrTruncatedSnapshotIsInvalidAndPinsSegmentZero) {
  const std::string base = temp_base("corrupt");
  const pcn::Network network = make_network(small_config(7));
  SnapshotData data;
  data.next_epoch = 2;
  data.digest = network.state_digest();
  data.first_segment = 4;
  data.network_bytes = encode_network(network);
  {
    SnapshotStore store(base);
    store.write(data);
    EXPECT_EQ(store.oldest_retained_first_segment(), 4u);
  }

  // One flipped byte anywhere fails the end-to-end check...
  flip_byte(snapshot_path(base, 0), 40);
  SnapshotStore store(base);
  ASSERT_EQ(store.entries().size(), 1u);
  EXPECT_FALSE(store.entries()[0].valid);
  // ...and an invalid snapshot conservatively pins segment 0: its
  // fallback might need the whole history.
  EXPECT_EQ(store.oldest_retained_first_segment(), 0u);

  // Stored-digest mismatch (not just byte corruption) is also invalid:
  // a snapshot whose bytes checksum cleanly but whose captured network
  // does not hash to the stored digest must not be restored.
  const std::string base2 = temp_base("drift");
  data.digest ^= 1;
  {
    SnapshotStore store2(base2);
    store2.write(data);
  }
  SnapshotStore rescanned(base2);
  ASSERT_EQ(rescanned.entries().size(), 1u);
  EXPECT_FALSE(rescanned.entries()[0].valid);

  // Truncation at any point is detected by the reader.
  std::string bytes;
  {
    std::ifstream in(snapshot_path(base, 0), std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(snapshot_path(base, 0),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  SnapshotData out;
  std::string error;
  EXPECT_FALSE(SnapshotStore::read_file(snapshot_path(base, 0), &out,
                                        &error));
  EXPECT_FALSE(error.empty());
}

/// Runs a checkpointed service for `epochs` epochs and returns the final
/// live digest; journal + snapshots are left on disk for recovery tests.
std::uint64_t run_checkpointed(const std::string& base, int epochs,
                               int snapshot_every,
                               const sim::SimulationConfig& config) {
  core::M3DoubleAuction mechanism;
  Journal journal(base);
  SnapshotStore snapshots(base);
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.snapshots = &snapshots;
  service_config.snapshot_every = snapshot_every;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = 0; epoch < epochs; ++epoch) service.run_epoch();
  return net.state_digest();
}

TEST(Snapshot, RecoverPrefersNewestSnapshotThenOlderThenRefuses) {
  const sim::SimulationConfig config = small_config(5);
  const std::string base = temp_base("precedence");
  // Checkpoints settle after epochs 2 and 5 (cadence 3): two snapshots
  // (next_epoch 3 and 6), tail = epoch 6, segment 0 compacted away.
  const std::uint64_t live_digest = run_checkpointed(base, 7, 3, config);
  ASSERT_EQ(list_snapshots(base).size(), 2u);
  ASSERT_GT(Journal(base).oldest_segment(), 0u);

  {
    // Newest snapshot wins: one epoch of tail replay.
    Journal journal(base);
    SnapshotStore snapshots(base);
    pcn::Network net = make_network(config);
    const RecoveryReport rec = recover(journal, snapshots, net, config.policy);
    EXPECT_TRUE(rec.from_snapshot);
    EXPECT_EQ(rec.snapshot_epoch, 6);
    EXPECT_EQ(rec.snapshots_discarded, 0);
    EXPECT_EQ(rec.next_epoch, 7);
    EXPECT_EQ(net.state_digest(), live_digest);
  }

  // Corrupt the newest snapshot: recovery discards it and replays the
  // longer tail from the older one — bit-identical result.
  const std::vector<std::uint64_t> seqs = list_snapshots(base);
  flip_byte(snapshot_path(base, seqs.back()), 25);
  {
    Journal journal(base);
    SnapshotStore snapshots(base);
    pcn::Network net = make_network(config);
    const RecoveryReport rec = recover(journal, snapshots, net, config.policy);
    EXPECT_TRUE(rec.from_snapshot);
    EXPECT_EQ(rec.snapshot_epoch, 3);
    EXPECT_EQ(rec.snapshots_discarded, 1);
    EXPECT_EQ(rec.next_epoch, 7);
    EXPECT_EQ(net.state_digest(), live_digest);
  }

  // Corrupt both: no valid snapshot and no genesis history (segment 0
  // was compacted) — recovery must refuse loudly, not hand back a wrong
  // network.
  flip_byte(snapshot_path(base, seqs.front()), 25);
  {
    Journal journal(base);
    SnapshotStore snapshots(base);
    pcn::Network net = make_network(config);
    EXPECT_THROW(recover(journal, snapshots, net, config.policy),
                 JournalError);
  }
}

TEST(Snapshot, UnreadableNewestSnapshotFallsBackToOlder) {
  const sim::SimulationConfig config = small_config(5);
  const std::string base = temp_base("unreadable");
  const std::uint64_t live_digest = run_checkpointed(base, 7, 3, config);
  const std::vector<std::uint64_t> seqs = list_snapshots(base);
  ASSERT_EQ(seqs.size(), 2u);
  // A self-referencing symlink fails to open with ELOOP: the snapshot is
  // invalid, and recovery replays the longer tail from the older one.
  const std::string newest = snapshot_path(base, seqs.back());
  std::filesystem::remove(newest);
  std::filesystem::create_symlink(newest, newest);

  Journal journal(base);
  SnapshotStore snapshots(base);
  ASSERT_EQ(snapshots.entries().size(), 2u);
  EXPECT_FALSE(snapshots.entries().back().valid);
  pcn::Network net = make_network(config);
  const RecoveryReport rec = recover(journal, snapshots, net, config.policy);
  EXPECT_TRUE(rec.from_snapshot);
  EXPECT_EQ(rec.snapshot_epoch, 3);
  EXPECT_EQ(rec.snapshots_discarded, 1);
  EXPECT_EQ(net.state_digest(), live_digest);
}

TEST(Snapshot, RecoverFallsBackToGenesisReplayWithoutSnapshots) {
  const sim::SimulationConfig config = small_config(5);
  const std::string base = temp_base("genesis");
  // Journal-only run: no snapshots anywhere.
  const std::uint64_t live_digest = run_checkpointed(base, 3, 0, config);
  ASSERT_TRUE(list_snapshots(base).empty());

  Journal journal(base);
  SnapshotStore snapshots(base);
  pcn::Network net = make_network(config);
  const RecoveryReport rec = recover(journal, snapshots, net, config.policy);
  EXPECT_FALSE(rec.from_snapshot);
  EXPECT_EQ(rec.next_epoch, 3);
  EXPECT_EQ(rec.epochs_settled, 3);
  EXPECT_EQ(net.state_digest(), live_digest);
}

}  // namespace
}  // namespace musketeer::svc
