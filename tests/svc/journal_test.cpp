// Epoch journal: record round-trips, torn/corrupt-tail repair on open,
// and the recovery state machine svc::recover runs over a journal with
// no snapshots (rollback, exactly-once in-flight application, digest
// verification).
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "pcn/rebalancer.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc_test_util.hpp"

namespace musketeer::svc {
namespace {

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::read_bytes;
using testutil::small_config;

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "musk_journal_" + name;
  testutil::remove_journal_files(path);
  return path;
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

TEST(Journal, RecordsSurviveReopen) {
  const std::string path = temp_journal("reopen");
  {
    Journal journal(path);
    journal.append_begin(0, 111);
    journal.append_settled(0, 222);
    journal.append_begin(1, 222);
    journal.append_aborted(1, 222);
    EXPECT_EQ(scan_journal(path).records.size(), 4u);
  }
  Journal journal(path);
  ASSERT_EQ(journal.records().size(), 4u);
  EXPECT_EQ(journal.truncated_tail_bytes(), 0u);
  EXPECT_EQ(journal.records()[0].type, RecordType::kBegin);
  EXPECT_EQ(journal.records()[0].epoch, 0);
  EXPECT_EQ(journal.records()[0].digest, 111u);
  EXPECT_EQ(journal.records()[1].type, RecordType::kSettled);
  EXPECT_EQ(journal.records()[1].digest, 222u);
  EXPECT_EQ(journal.records()[2].type, RecordType::kBegin);
  EXPECT_EQ(journal.records()[2].epoch, 1);
  EXPECT_EQ(journal.records()[3].type, RecordType::kAborted);
}

// records() is what open() recovered. Appends go to disk only, so a
// journal-only daemon holds no copy of the history it writes.
TEST(Journal, AppendsReachTheDiskButNotRecords) {
  const std::string path = temp_journal("disk_only");
  {
    Journal journal(path);
    journal.append_begin(0, 1);
    journal.append_settled(0, 2);
  }
  Journal journal(path);
  ASSERT_EQ(journal.records().size(), 2u);
  const std::uint64_t bytes_before = journal.committed_bytes();
  constexpr int kEpochs = 50;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    journal.append_begin(epoch, 2);
    journal.append_degraded(epoch, 2, 1, "m1");
    journal.append_settled(epoch, 2);
    EXPECT_EQ(journal.records().size(), 2u) << "epoch " << epoch;
  }

  const std::vector<JournalRecord> written = scan_journal(path).records;
  ASSERT_EQ(written.size(), 2u + 3u * kEpochs);
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    const std::size_t at = 2 + 3 * static_cast<std::size_t>(epoch - 1);
    EXPECT_EQ(written[at].type, RecordType::kBegin);
    EXPECT_EQ(written[at + 1].type, RecordType::kDegraded);
    EXPECT_EQ(written[at + 1].payload, std::string("\x01m1", 3));
    EXPECT_EQ(written[at + 2].type, RecordType::kSettled);
    for (std::size_t k = at; k < at + 3; ++k) {
      EXPECT_EQ(written[k].epoch, epoch);
      EXPECT_EQ(written[k].digest, 2u);
    }
  }
  // The record layout is unchanged: 29 bytes of framing per record
  // (magic, type, epoch, digest, length, checksum) plus its payload.
  const std::uint64_t appended = 3u * kEpochs * 29u + kEpochs * 3u;
  EXPECT_EQ(journal.committed_bytes(), bytes_before + appended);
  EXPECT_EQ(read_bytes(segment_path(path, 0)).size(),
            journal.committed_bytes());
}

TEST(Journal, TornTailTruncatedOnOpen) {
  const std::string path = temp_journal("torn");
  std::uint64_t committed = 0;
  {
    Journal journal(path);
    journal.append_begin(0, 7);
    journal.append_settled(0, 9);
    committed = journal.committed_bytes();
  }
  // A crash mid-write leaves a partial record: magic plus a few bytes.
  append_raw(segment_path(path, 0), std::string("MJRN\x01garbage", 12));

  Journal journal(path);
  EXPECT_EQ(journal.records().size(), 2u);
  EXPECT_EQ(journal.truncated_tail_bytes(), 12u);
  EXPECT_EQ(journal.committed_bytes(), committed);

  // The repair is durable: appending continues from the cut point and a
  // third open sees a clean file.
  journal.append_begin(1, 9);
  Journal reopened(path);
  EXPECT_EQ(reopened.records().size(), 3u);
  EXPECT_EQ(reopened.truncated_tail_bytes(), 0u);
}

TEST(Journal, CorruptRecordDropsItAndEverythingAfter) {
  const std::string path = temp_journal("corrupt");
  std::uint64_t after_first = 0;
  {
    Journal journal(path);
    journal.append_begin(0, 7);
    after_first = journal.committed_bytes();
    journal.append_settled(0, 9);
    journal.append_begin(1, 9);
  }
  // Flip a byte inside the second record's digest field: its checksum
  // no longer matches, so it and the intact record after it are both
  // discarded (the scan keeps only the longest valid prefix).
  // committed_bytes counts from the segment-file start (header included),
  // so it doubles as the second record's file offset.
  flip_byte(segment_path(path, 0), static_cast<std::size_t>(after_first) + 10);

  Journal journal(path);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].type, RecordType::kBegin);
  EXPECT_GT(journal.truncated_tail_bytes(), 0u);
  EXPECT_EQ(journal.committed_bytes(), after_first);
}

TEST(Journal, BadHeaderRejected) {
  const std::string path = temp_journal("badheader");
  append_raw(segment_path(path, 0), "NOTAJRNL and then some");
  EXPECT_THROW(Journal journal(path), JournalError);
  // A short file cannot be a journal either.
  const std::string short_path = temp_journal("shortheader");
  append_raw(segment_path(short_path, 0), "MU");
  EXPECT_THROW(Journal journal(short_path), JournalError);
}

TEST(Journal, SegmentsRollAtEpochBoundariesAndSurviveReopen) {
  const std::string path = temp_journal("rotate");
  {
    Journal journal(path);
    for (int epoch = 0; epoch < 3; ++epoch) {
      journal.append_begin(epoch, 10 + epoch);
      journal.append_settled(epoch, 11 + epoch);
      journal.roll_segment();
    }
    // Three rolls: segments 0..3, the last one empty and current.
    EXPECT_EQ(journal.segment_count(), 4u);
    EXPECT_EQ(journal.oldest_segment(), 0u);
    EXPECT_EQ(journal.current_segment(), 3u);
  }
  EXPECT_EQ(list_segments(path), (std::vector<std::uint64_t>{0, 1, 2, 3}));

  // Reopen stitches the chain back together, records in order.
  Journal journal(path);
  ASSERT_EQ(journal.records().size(), 6u);
  for (int epoch = 0; epoch < 3; ++epoch) {
    EXPECT_EQ(journal.records()[static_cast<std::size_t>(epoch) * 2].epoch,
              epoch);
  }
  EXPECT_EQ(journal.truncated_tail_bytes(), 0u);
  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.clean);
}

TEST(Journal, CompactBelowUnlinksCoveredSegments) {
  const std::string path = temp_journal("compact");
  std::size_t records_kept = 0;
  {
    Journal journal(path);
    for (int epoch = 0; epoch < 3; ++epoch) {
      journal.append_begin(epoch, 20 + epoch);
      journal.append_settled(epoch, 21 + epoch);
      journal.roll_segment();
    }
    // Segments 0..3; epoch 2's records live in segment 2, segment 3 is
    // the empty current tail.
    for (const SegmentStat& seg : scan_journal(path).segments) {
      if (seg.seq >= 2) records_kept += seg.records;
    }
    EXPECT_EQ(records_kept, 2u);

    EXPECT_EQ(journal.compact_below(2), 2u);
    EXPECT_EQ(journal.oldest_segment(), 2u);
    EXPECT_EQ(journal.segment_count(), 2u);
    EXPECT_EQ(list_segments(path), (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(scan_journal(path).records.size(), records_kept);
    // Idempotent: nothing left below the bound.
    EXPECT_EQ(journal.compact_below(2), 0u);
  }

  // A reopen sees only the surviving records...
  Journal reopened(path);
  EXPECT_EQ(reopened.records().size(), records_kept);
  EXPECT_EQ(reopened.oldest_segment(), 2u);
  // ...and with no snapshot, recovery must refuse: history below the
  // compaction bound is gone, so a replay that silently started
  // mid-stream would hand back a wrong network.
  pcn::Network network = make_network(small_config(7));
  EXPECT_THROW(recover(reopened, SnapshotStore(path), network,
                       small_config(7).policy),
               JournalError);

  // However aggressive the bound, the current tail segment never goes.
  EXPECT_EQ(reopened.compact_below(99), 1u);
  EXPECT_EQ(reopened.segment_count(), 1u);
  EXPECT_EQ(reopened.current_segment(), 3u);
}

TEST(Journal, ListingRoundTripsEverySegmentPath) {
  const std::string path = temp_journal("listing");
  const std::vector<std::uint64_t> seqs{0, 999999, 1000000, 123456789012};
  for (const std::uint64_t seq : seqs) append_raw(segment_path(path, seq), "");
  // More zero padding than segment_path writes: not a segment name.
  const std::string padded = path + ".0000001.wal";
  append_raw(padded, "");
  EXPECT_EQ(list_segments(path), seqs);
  std::remove(padded.c_str());
}

TEST(Journal, SegmentsPastSixDigitSeqsStayInTheChain) {
  const std::string path = temp_journal("sevendigits");
  {
    Journal journal(path);
    journal.append_begin(0, 1);
    journal.append_settled(0, 2);
    journal.roll_segment();
    journal.append_begin(1, 2);
    journal.append_settled(1, 3);
  }
  // The same chain once its seqs have outgrown the 6-digit padding.
  std::filesystem::rename(segment_path(path, 0), segment_path(path, 999999));
  std::filesystem::rename(segment_path(path, 1), segment_path(path, 1000000));
  const std::string tail = read_bytes(segment_path(path, 1000000));

  Journal journal(path);
  EXPECT_EQ(journal.records().size(), 4u);
  EXPECT_EQ(journal.current_segment(), 1000000u);
  journal.roll_segment();
  EXPECT_EQ(journal.current_segment(), 1000001u);
  EXPECT_EQ(read_bytes(segment_path(path, 1000000)), tail);
}

TEST(Journal, UnreadableSegmentThrowsAndUnlinksNothing) {
  const std::string path = temp_journal("unreadable");
  {
    Journal journal(path);
    for (int epoch = 0; epoch < 3; ++epoch) {
      if (epoch > 0) journal.roll_segment();
      journal.append_begin(epoch, 10 + epoch);
      journal.append_settled(epoch, 11 + epoch);
    }
  }
  const std::string first = read_bytes(segment_path(path, 0));
  const std::string last = read_bytes(segment_path(path, 2));
  // A self-referencing symlink fails to open with ELOOP, the way a wrong
  // file owner fails with EACCES and a failing disk with EIO. No crash
  // leaves such a file, so open must refuse rather than discard.
  const std::string middle = segment_path(path, 1);
  std::filesystem::remove(middle);
  std::filesystem::create_symlink(middle, middle);
  try {
    Journal journal(path);
    ADD_FAILURE() << "opened a journal with an unreadable segment";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.op(), "open");
    EXPECT_EQ(e.saved_errno(), ELOOP);
  }
  EXPECT_EQ(read_bytes(segment_path(path, 0)), first);
  EXPECT_EQ(read_bytes(segment_path(path, 2)), last);
}

TEST(Journal, WatermarksCommitAtOutcomeSettleAndDropAtAbort) {
  const sim::SimulationConfig config = small_config(7);
  pcn::Network network = make_network(config);
  const std::uint64_t genesis = network.state_digest();
  const std::string path = temp_journal("watermarks");
  {
    Journal journal(path);
    // Epoch 0: an *empty* epoch (BEGIN straight to SETTLED, no OUTCOME)
    // that still drained sequenced bids — their watermarks must commit.
    journal.append_begin(0, genesis, SeqWatermarks{{2, 4}});
    journal.append_settled(0, genesis);
    // Epoch 1: aborted — its drained seqs must stay resubmittable.
    journal.append_begin(1, genesis, SeqWatermarks{{3, 9}});
    journal.append_aborted(1, genesis);
    // Epoch 1 retried: dangling BEGIN (crash before commit) — dropped.
    journal.append_begin(1, genesis, SeqWatermarks{{2, 7}});
  }
  Journal journal(path);
  const RecoveryReport report =
      recover(journal, SnapshotStore(journal.path()), network, config.policy);
  EXPECT_EQ(report.rolled_back, 1);
  EXPECT_EQ(report.aborted_epochs, 1);
  EXPECT_EQ(report.watermarks, (SeqWatermarks{{2, 4}}));
}

TEST(Journal, EmptyJournalReplaysToGenesis) {
  const std::string path = temp_journal("empty");
  Journal journal(path);
  pcn::Network network = make_network(small_config(7));
  const std::uint64_t genesis = network.state_digest();
  const RecoveryReport report =
      recover(journal, SnapshotStore(journal.path()),
              network, small_config(7).policy);
  EXPECT_EQ(report.epochs_settled, 0);
  EXPECT_EQ(report.rolled_back, 0);
  EXPECT_EQ(report.next_epoch, 0);
  EXPECT_FALSE(report.applied_inflight);
  EXPECT_EQ(report.final_digest, genesis);
  EXPECT_EQ(network.state_digest(), genesis);
}

TEST(Journal, ReplayReproducesServiceRunExactly) {
  const sim::SimulationConfig config = small_config(5);
  const std::string path = temp_journal("replay");
  core::M3DoubleAuction mechanism;

  pcn::Network live = make_network(config);
  {
    Journal journal(path);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    RebalanceService service(live, mechanism, service_config);
    for (int epoch = 0; epoch < 3; ++epoch) {
      const EpochReport report = service.run_epoch();
      EXPECT_EQ(report.epoch, epoch);
    }
  }

  Journal journal(path);
  pcn::Network recovered = make_network(config);
  const RecoveryReport report =
      recover(journal, SnapshotStore(journal.path()), recovered, config.policy);
  EXPECT_EQ(report.epochs_settled, 3);
  EXPECT_EQ(report.rolled_back, 0);
  EXPECT_EQ(report.aborted_epochs, 0);
  EXPECT_FALSE(report.applied_inflight);
  EXPECT_EQ(report.next_epoch, 3);
  EXPECT_EQ(report.final_digest, live.state_digest());
  expect_networks_equal(recovered, live);
}

TEST(Journal, InflightOutcomeAppliedExactlyOnceAndClosed) {
  const sim::SimulationConfig config = small_config(5);
  const std::string path = temp_journal("inflight");
  core::M3DoubleAuction mechanism;

  // Reference: what one fully settled epoch produces.
  pcn::Network reference = make_network(config);
  ServiceConfig reference_config;
  reference_config.policy = config.policy;
  RebalanceService reference_service(reference, mechanism, reference_config);
  const EpochReport reference_report = reference_service.run_epoch();
  ASSERT_GT(reference_report.cycles_executed, 0) << "seed cleared no cycles";

  // Hand-build the crash shape: BEGIN + committed OUTCOME, no SETTLED —
  // the daemon died after the commit point but before settlement.
  {
    pcn::Network staging = make_network(config);
    const std::uint64_t pre = staging.state_digest();
    pcn::ExtractedGame extracted =
        pcn::extract_and_lock(staging, config.policy);
    const core::Outcome outcome = mechanism.run_truthful(extracted.game);
    Journal journal(path);
    journal.append_begin(0, pre);
    journal.append_outcome(0, pre, outcome);
  }

  {
    Journal journal(path);
    pcn::Network recovered = make_network(config);
    const RecoveryReport report =
        recover(journal, SnapshotStore(journal.path()),
                recovered, config.policy);
    EXPECT_TRUE(report.applied_inflight);
    EXPECT_EQ(report.epochs_settled, 1);
    EXPECT_EQ(report.next_epoch, 1);
    EXPECT_EQ(report.final_digest, reference_report.network_digest);
    expect_networks_equal(recovered, reference);
    // Recovery closed the epoch durably.
    const std::vector<JournalRecord> written = scan_journal(path).records;
    ASSERT_FALSE(written.empty());
    EXPECT_EQ(written.back().type, RecordType::kSettled);
    EXPECT_EQ(written.back().digest, reference_report.network_digest);
  }

  // A second recovery (recovery itself interrupted and retried) replays
  // the close-out SETTLED instead of re-detecting an in-flight tail: the
  // outcome is never applied twice.
  Journal journal(path);
  pcn::Network again = make_network(config);
  const RecoveryReport second =
      recover(journal, SnapshotStore(journal.path()), again, config.policy);
  EXPECT_FALSE(second.applied_inflight);
  EXPECT_EQ(second.epochs_settled, 1);
  EXPECT_EQ(second.next_epoch, 1);
  expect_networks_equal(again, reference);
}

TEST(Journal, DanglingBeginRolledBackAndEpochReused) {
  const sim::SimulationConfig config = small_config(7);
  const std::string path = temp_journal("dangling");
  pcn::Network network = make_network(config);
  const std::uint64_t genesis = network.state_digest();
  {
    Journal journal(path);
    journal.append_begin(0, genesis);
  }
  Journal journal(path);
  const RecoveryReport report =
      recover(journal, SnapshotStore(journal.path()), network, config.policy);
  EXPECT_EQ(report.rolled_back, 1);
  EXPECT_EQ(report.epochs_settled, 0);
  EXPECT_EQ(report.next_epoch, 0);
  EXPECT_EQ(network.state_digest(), genesis);
}

TEST(Journal, AbortedEpochReusesItsNumber) {
  const sim::SimulationConfig config = small_config(7);
  const std::string path = temp_journal("aborted");
  pcn::Network network = make_network(config);
  const std::uint64_t genesis = network.state_digest();
  {
    Journal journal(path);
    journal.append_begin(2, genesis);
    journal.append_aborted(2, genesis);
  }
  Journal journal(path);
  const RecoveryReport report =
      recover(journal, SnapshotStore(journal.path()), network, config.policy);
  EXPECT_EQ(report.aborted_epochs, 1);
  EXPECT_EQ(report.rolled_back, 0);
  EXPECT_EQ(report.next_epoch, 2);
  EXPECT_EQ(network.state_digest(), genesis);
}

TEST(Journal, WrongGenesisNetworkRejected) {
  const sim::SimulationConfig config = small_config(5);
  const std::string path = temp_journal("wronggenesis");
  {
    pcn::Network network = make_network(config);
    Journal journal(path);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    core::M3DoubleAuction mechanism;
    RebalanceService service(network, mechanism, service_config);
    service.run_epoch();
  }
  Journal journal(path);
  pcn::Network wrong = make_network(small_config(8));  // different seed
  EXPECT_THROW(
      recover(journal, SnapshotStore(journal.path()), wrong, config.policy),
      JournalError);
}

TEST(Journal, MalformedRecordSequencesRejectedOnReplay) {
  const sim::SimulationConfig config = small_config(7);
  pcn::Network network = make_network(config);
  const std::uint64_t genesis = network.state_digest();

  {
    // SETTLED with no BEGIN at all.
    const std::string path = temp_journal("orphan_settled");
    {
      Journal journal(path);
      journal.append_settled(0, genesis);
    }
    Journal journal(path);
    pcn::Network net = make_network(config);
    EXPECT_THROW(
        recover(journal, SnapshotStore(journal.path()), net, config.policy),
        JournalError);
  }
  {
    // ABORTED with no BEGIN.
    const std::string path = temp_journal("orphan_aborted");
    {
      Journal journal(path);
      journal.append_aborted(0, genesis);
    }
    Journal journal(path);
    pcn::Network net = make_network(config);
    EXPECT_THROW(
        recover(journal, SnapshotStore(journal.path()), net, config.policy),
        JournalError);
  }
}

}  // namespace
}  // namespace musketeer::svc
