// Recovery fuzzer: byte-level corruption sweeps over the artifacts a
// crashed daemon leaves behind. A checkpointed run writes its journal
// segments and snapshots; then, for every byte offset, the final
// segment is truncated or bit-flipped and recovery is re-run. The
// contract under ANY single corruption:
//
//   * recovery never crashes or corrupts memory — it returns or throws
//     a structured JournalError;
//   * a recovered network is always a bit-exact epoch boundary of the
//     live run (the longest surviving committed prefix), never a
//     half-applied or invented state;
//   * a corrupt snapshot is detected by its end-to-end check and
//     recovery falls back to the older snapshot with a longer tail,
//     reproducing the exact final state.
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::make_network;
using testutil::read_bytes;
using testutil::small_config;

void write_bytes(const std::string& path, const std::string& bytes,
                 std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(len));
}

/// The corpus every sweep runs against: a 8-epoch checkpointed run
/// (snapshots at next_epoch 3 and 6, tail = epochs 6..7) plus the
/// digest of every epoch boundary the live run passed through.
struct Corpus {
  std::string base;
  std::set<std::uint64_t> boundary_digests;
  std::uint64_t final_digest = 0;
  std::uint64_t tail_seq = 0;      // final (live) segment
  std::string tail_bytes;          // its pristine contents
  std::vector<std::uint64_t> snapshot_seqs;
};

Corpus build_corpus(const std::string& name) {
  Corpus corpus;
  corpus.base = ::testing::TempDir() + "musk_fuzz_" + name;
  testutil::remove_journal_files(corpus.base);

  const sim::SimulationConfig config = small_config(5);
  core::M3DoubleAuction mechanism;
  Journal journal(corpus.base);
  SnapshotStore snapshots(corpus.base);
  pcn::Network net = make_network(config);
  corpus.boundary_digests.insert(net.state_digest());  // genesis
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.snapshots = &snapshots;
  service_config.snapshot_every = 3;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = 0; epoch < 8; ++epoch) {
    service.run_epoch();
    corpus.boundary_digests.insert(net.state_digest());
  }
  corpus.final_digest = net.state_digest();
  corpus.tail_seq = journal.current_segment();
  corpus.tail_bytes = read_bytes(segment_path(corpus.base, corpus.tail_seq));
  corpus.snapshot_seqs = list_snapshots(corpus.base);
  EXPECT_EQ(corpus.snapshot_seqs.size(), 2u);
  EXPECT_GT(corpus.tail_bytes.size(), 8u) << "empty tail: nothing to fuzz";
  return corpus;
}

/// One recovery attempt against the (possibly corrupted) on-disk state.
/// Returns true when recovery succeeded and stored the digest in `out`.
bool try_recover(const Corpus& corpus, const sim::SimulationConfig& config,
                 std::uint64_t* out) {
  Journal journal(corpus.base);
  SnapshotStore snapshots(corpus.base);
  pcn::Network net = make_network(config);
  const RecoveryReport rec = recover(journal, snapshots, net, config.policy);
  EXPECT_GE(rec.next_epoch, 0);
  EXPECT_LE(rec.next_epoch, 8);
  *out = net.state_digest();
  return true;
}

TEST(RecoveryFuzz, TailSegmentTruncatedAtEveryByteOffset) {
  const sim::SimulationConfig config = small_config(5);
  const Corpus corpus = build_corpus("truncate");
  const std::string tail = segment_path(corpus.base, corpus.tail_seq);

  for (std::size_t len = 0; len < corpus.tail_bytes.size(); ++len) {
    write_bytes(tail, corpus.tail_bytes, len);
    std::uint64_t digest = 0;
    try {
      try_recover(corpus, config, &digest);
    } catch (const JournalError& error) {
      ADD_FAILURE() << "truncation at " << len
                    << " made recovery refuse: " << error.what();
      continue;
    }
    EXPECT_TRUE(corpus.boundary_digests.count(digest))
        << "truncation at " << len << " recovered to a non-boundary state";
  }
  // Restore and prove the corpus itself recovers to the live endpoint.
  write_bytes(tail, corpus.tail_bytes, corpus.tail_bytes.size());
  std::uint64_t digest = 0;
  ASSERT_TRUE(try_recover(corpus, config, &digest));
  EXPECT_EQ(digest, corpus.final_digest);
}

TEST(RecoveryFuzz, TailSegmentBitFlippedAtEveryByteOffset) {
  const sim::SimulationConfig config = small_config(5);
  const Corpus corpus = build_corpus("flip");
  const std::string tail = segment_path(corpus.base, corpus.tail_seq);

  for (std::size_t off = 0; off < corpus.tail_bytes.size(); ++off) {
    std::string mutated = corpus.tail_bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x40);
    write_bytes(tail, mutated, mutated.size());
    std::uint64_t digest = 0;
    bool recovered = false;
    try {
      recovered = try_recover(corpus, config, &digest);
    } catch (const JournalError&) {
      // A flip may land in a field the digest chain catches only at
      // replay time (e.g. a record's stored digest): refusing loudly is
      // as acceptable as truncating to the valid prefix.
      continue;
    }
    EXPECT_TRUE(recovered);
    EXPECT_TRUE(corpus.boundary_digests.count(digest))
        << "flip at " << off << " recovered to a non-boundary state";
  }
}

TEST(RecoveryFuzz, NewestSnapshotCorruptedAtEveryByteOffset) {
  const sim::SimulationConfig config = small_config(5);
  const Corpus corpus = build_corpus("snap");
  const std::string newest =
      snapshot_path(corpus.base, corpus.snapshot_seqs.back());
  const std::string pristine = read_bytes(newest);

  for (std::size_t off = 0; off < pristine.size(); ++off) {
    std::string mutated = pristine;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x40);
    write_bytes(newest, mutated, mutated.size());
    // Every flip must be caught by the end-to-end validation, and the
    // fallback (older snapshot + longer tail) reproduces the exact
    // final state — the journal itself is intact.
    std::uint64_t digest = 0;
    ASSERT_TRUE(try_recover(corpus, config, &digest)) << "offset " << off;
    EXPECT_EQ(digest, corpus.final_digest) << "offset " << off;
  }

  // Truncations of the snapshot likewise fall back cleanly.
  for (std::size_t len = 0; len < pristine.size();
       len += std::max<std::size_t>(1, pristine.size() / 256)) {
    write_bytes(newest, pristine, len);
    std::uint64_t digest = 0;
    ASSERT_TRUE(try_recover(corpus, config, &digest)) << "length " << len;
    EXPECT_EQ(digest, corpus.final_digest) << "length " << len;
  }
  write_bytes(newest, pristine, pristine.size());
}

TEST(RecoveryFuzz, AllSnapshotsCorruptWithCompactedHistoryRefuses) {
  const sim::SimulationConfig config = small_config(5);
  const Corpus corpus = build_corpus("refuse");
  ASSERT_GT(Journal(corpus.base).oldest_segment(), 0u)
      << "history was not compacted; the refusal path is not reachable";
  for (const std::uint64_t seq : corpus.snapshot_seqs) {
    const std::string path = snapshot_path(corpus.base, seq);
    const std::string bytes = read_bytes(path);
    std::string mutated = bytes;
    mutated[bytes.size() / 2] =
        static_cast<char>(mutated[bytes.size() / 2] ^ 0x40);
    write_bytes(path, mutated, mutated.size());
  }
  std::uint64_t digest = 0;
  EXPECT_THROW(try_recover(corpus, config, &digest), JournalError);
}

}  // namespace
}  // namespace musketeer::svc
