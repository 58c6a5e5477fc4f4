// Chaos suite: kill the daemon at every fault-injection point and prove
// the restarted one converges to the fault-free run — same state_digest,
// same channel/lock state, every outcome applied exactly once, and
// client resubmission never landing two bids for one player and epoch.
//
// Every test skips unless the build carries -DMUSKETEER_FAULTS (the
// `chaos` preset); the suite is compiled into the default build so the
// fault spec grammar itself is always link-checked.
//
// CI runs the suite several times with MUSK_CHAOS_SEED=<n>; the seeded
// test derives a crash schedule from that seed so each run kills the
// daemon somewhere else. When MUSK_CHAOS_ARTIFACTS names a directory,
// journals and fault schedules land there for upload on failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/m3_double_auction.hpp"
#include "core/mechanism_factory.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/journal.hpp"
#include "svc/service.hpp"
#include "svc/snapshot.hpp"
#include "svc_test_util.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace musketeer::svc {
namespace {

namespace fault = util::fault;

using testutil::expect_networks_equal;
using testutil::make_network;
using testutil::small_config;

constexpr int kTotalEpochs = 4;
constexpr int kCrashEpoch = 1;

#define SKIP_WITHOUT_FAULTS()                                  \
  do {                                                         \
    if (!fault::compiled_in()) {                               \
      GTEST_SKIP() << "built without -DMUSKETEER_FAULTS";      \
    }                                                          \
  } while (0)

/// Scratch location for journals: the artifact directory when CI set one
/// (so failed runs upload their evidence), TempDir otherwise.
std::string scratch_path(const std::string& name) {
  std::string dir;
  if (const char* artifacts = std::getenv("MUSK_CHAOS_ARTIFACTS")) {
    dir = std::string(artifacts) + "/";
  } else {
    dir = ::testing::TempDir();
  }
  std::string path = dir + "chaos_" + name;
  std::replace(path.begin(), path.end(), '.', '_');
  testutil::remove_journal_files(path);
  return path;
}

void log_artifact(const std::string& name, const std::string& text) {
  if (const char* artifacts = std::getenv("MUSK_CHAOS_ARTIFACTS")) {
    std::ofstream out(std::string(artifacts) + "/" + name,
                      std::ios::app);
    out << text << "\n";
  }
}

struct Baseline {
  pcn::Network final_net{0};
  std::vector<EpochReport> reports;
};

/// The fault-free oracle: the same genesis network cleared for
/// `kTotalEpochs` truthful epochs (no journal, no faults).
Baseline run_baseline(const sim::SimulationConfig& config) {
  Baseline baseline;
  core::M3DoubleAuction mechanism;
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = 0; epoch < kTotalEpochs; ++epoch) {
    baseline.reports.push_back(service.run_epoch());
  }
  baseline.final_net = net;
  return baseline;
}

/// One full kill/restart cycle: run a journaled service, arm `spec` just
/// before epoch `crash_epoch`, let the crash rip through run_epoch with
/// no cleanup, then "reboot" — reopen the journal, replay it onto a
/// fresh genesis network, and resume until kTotalEpochs have settled.
/// Returns the recovery report for the caller's exactly-once checks.
RecoveryReport crash_and_recover(
    const sim::SimulationConfig& config, const std::string& journal_path,
    const std::string& spec, int crash_epoch, const Baseline& baseline,
    const std::function<void(ServiceConfig&)>& tweak = {}) {
  core::M3DoubleAuction mechanism;
  log_artifact("schedules.txt", journal_path + ": " + spec);
  {
    Journal journal(journal_path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    if (tweak) tweak(service_config);
    RebalanceService service(net, mechanism, service_config);
    for (int epoch = 0; epoch < crash_epoch; ++epoch) service.run_epoch();
    fault::configure(spec);
    EXPECT_THROW(service.run_epoch(), fault::CrashPoint)
        << "spec " << spec << " did not kill epoch " << crash_epoch;
    fault::clear();
  }  // the dead process: service and journal abandoned mid-epoch

  Journal journal(journal_path);
  pcn::Network net = make_network(config);
  const RecoveryReport recovery =
      recover(journal, SnapshotStore(journal.path()), net, config.policy);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.first_epoch = recovery.next_epoch;
  if (tweak) tweak(service_config);
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = recovery.next_epoch; epoch < kTotalEpochs; ++epoch) {
    const EpochReport report = service.run_epoch();
    EXPECT_EQ(report.epoch, epoch);
    // Epoch numbering and per-epoch results line up with the oracle.
    EXPECT_EQ(report.network_digest,
              baseline.reports[static_cast<std::size_t>(epoch)].network_digest)
        << "spec " << spec << " diverged at epoch " << epoch;
  }
  EXPECT_EQ(service.epochs_cleared(), kTotalEpochs);
  EXPECT_EQ(net.state_digest(), baseline.final_net.state_digest())
      << "spec " << spec;
  expect_networks_equal(net, baseline.final_net);
  return recovery;
}

TEST(Chaos, RegistryAndScheduleGrammar) {
  SKIP_WITHOUT_FAULTS();
  const std::vector<std::string> expected = {
      "wire.client.send",      "wire.server.send",
      "sock.connect",          "journal.write",
      "journal.fsync",         "svc.crash_after_begin",
      "svc.crash_before_commit", "svc.crash_after_commit",
      "svc.crash_mid_settle",  "deadline.expire",
      "degrade.fail",          "segment.roll",
      "snapshot.write",        "snapshot.rename",
      "compact.unlink",        "disk.full"};
  const std::vector<std::string> registered = fault::points();
  for (const std::string& point : expected) {
    EXPECT_NE(std::find(registered.begin(), registered.end(), point),
              registered.end())
        << "missing point " << point;
  }
  EXPECT_EQ(registered.size(), expected.size());

  fault::configure("seed=42;journal.write@2=corrupt;wire.client.send=drop");
  const std::string rendered = fault::schedule_string();
  EXPECT_NE(rendered.find("journal.write@2=corrupt"), std::string::npos);
  fault::configure(rendered);  // spec rendering round-trips

  EXPECT_THROW(fault::configure("no.such.point=crash"), std::runtime_error);
  EXPECT_THROW(fault::configure("journal.write@0=crash"), std::runtime_error);
  EXPECT_THROW(fault::configure("journal.write=explode"), std::runtime_error);
  EXPECT_THROW(fault::configure("journal.write"), std::runtime_error);
  fault::clear();

  // Hit counters tick even with nothing scheduled (observability).
  fault::hit("sock.connect");
  fault::hit("sock.connect");
  EXPECT_EQ(fault::hits("sock.connect"), 2u);
  fault::clear();
  EXPECT_EQ(fault::hits("sock.connect"), 0u);
}

// The tentpole's core claim: a kill -9 at any of the service's crash
// points — after BEGIN, before the commit fsync, after the commit,
// mid-settle — recovers to the exact fault-free state, with the epoch
// rolled back (pre-commit) or applied exactly once (post-commit).
TEST(Chaos, CrashAtEveryServicePointConverges) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  ASSERT_GT(baseline.reports[kCrashEpoch].game_edges, 0)
      << "crash epoch extracts an empty game; pick another seed";

  struct PointCase {
    const char* point;
    bool committed;  // true: outcome is durable, recovery must apply it
  };
  const PointCase cases[] = {
      {"svc.crash_after_begin", false},
      {"svc.crash_before_commit", false},
      {"svc.crash_after_commit", true},
      {"svc.crash_mid_settle", true},
  };
  for (const PointCase& c : cases) {
    SCOPED_TRACE(c.point);
    const RecoveryReport recovery = crash_and_recover(
        config, scratch_path(std::string(c.point) + ".jrn"),
        std::string(c.point) + "@1=crash", kCrashEpoch, baseline);
    if (c.committed) {
      EXPECT_TRUE(recovery.applied_inflight);
      EXPECT_EQ(recovery.rolled_back, 0);
      EXPECT_EQ(recovery.next_epoch, kCrashEpoch + 1);
      EXPECT_EQ(recovery.epochs_settled, kCrashEpoch + 1);
    } else {
      EXPECT_FALSE(recovery.applied_inflight);
      EXPECT_EQ(recovery.rolled_back, 1);
      EXPECT_EQ(recovery.next_epoch, kCrashEpoch);
      EXPECT_EQ(recovery.epochs_settled, kCrashEpoch);
    }
  }
}

TEST(Chaos, TornJournalWriteRecoversFromTruncatedTail) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  // Hits within the crash epoch: BEGIN is write 1, OUTCOME is write 2 —
  // tearing the OUTCOME mid-write models a crash during the commit.
  const RecoveryReport recovery = crash_and_recover(
      config, scratch_path("torn_outcome.jrn"), "journal.write@2=truncate",
      kCrashEpoch, baseline);
  EXPECT_FALSE(recovery.applied_inflight);
  EXPECT_EQ(recovery.rolled_back, 1);
  EXPECT_EQ(recovery.next_epoch, kCrashEpoch);

  // Dropping the whole BEGIN buffer mid-write tears the epoch earlier.
  const RecoveryReport begin_torn = crash_and_recover(
      config, scratch_path("torn_begin.jrn"), "journal.write@1=drop",
      kCrashEpoch, baseline);
  EXPECT_EQ(begin_torn.next_epoch, kCrashEpoch);
  EXPECT_EQ(begin_torn.epochs_settled, kCrashEpoch);
}

TEST(Chaos, SilentJournalCorruptionRecoversByRerunning) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  const std::string path = scratch_path("corrupt.jrn");
  core::M3DoubleAuction mechanism;
  {
    Journal journal(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    RebalanceService service(net, mechanism, service_config);
    // Write 3 of epoch 0 is its SETTLED record: corrupt lands on disk
    // silently (bad sectors are found at the next open, not at write).
    fault::configure("seed=42;journal.write@3=corrupt");
    for (int epoch = 0; epoch < kTotalEpochs; ++epoch) service.run_epoch();
    fault::clear();
    EXPECT_EQ(net.state_digest(), baseline.final_net.state_digest());
  }

  // Restart: the open truncates from the corrupt SETTLED on, leaving
  // epoch 0 committed-unsettled. Recovery applies it once; the later
  // epochs were lost with the tail but re-running them is deterministic,
  // so the rebooted daemon still converges to the oracle.
  Journal journal(path);
  EXPECT_GT(journal.truncated_tail_bytes(), 0u);
  pcn::Network net = make_network(config);
  const RecoveryReport recovery =
      recover(journal, SnapshotStore(journal.path()), net, config.policy);
  EXPECT_TRUE(recovery.applied_inflight);
  EXPECT_EQ(recovery.next_epoch, 1);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.first_epoch = recovery.next_epoch;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = recovery.next_epoch; epoch < kTotalEpochs; ++epoch) {
    service.run_epoch();
  }
  EXPECT_EQ(net.state_digest(), baseline.final_net.state_digest());
  expect_networks_equal(net, baseline.final_net);
}

TEST(Chaos, FsyncFailureAbortsEpochReleasesLocksAndReusesNumber) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const std::string path = scratch_path("fsyncfail.jrn");
  core::M3DoubleAuction mechanism;
  Journal journal(path);
  pcn::Network net = make_network(config);
  const std::uint64_t genesis = net.state_digest();
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  RebalanceService service(net, mechanism, service_config);

  // Fsync 1 is the BEGIN, fsync 2 the OUTCOME commit: the commit cannot
  // be made durable, so the epoch must abort cleanly.
  fault::configure("journal.fsync@2=fail");
  EXPECT_THROW(service.run_epoch(), JournalError);
  fault::clear();

  // Clean abort: every lock released, network back at genesis, the
  // journal closed with ABORTED, the epoch number not consumed.
  EXPECT_EQ(net.state_digest(), genesis);
  for (pcn::ChannelId c = 0; c < net.num_channels(); ++c) {
    EXPECT_EQ(net.channel(c).locked_a, 0) << "channel " << c;
    EXPECT_EQ(net.channel(c).locked_b, 0) << "channel " << c;
  }
  const std::vector<JournalRecord> written =
      scan_journal(journal.path()).records;
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(written.back().type, RecordType::kAborted);
  EXPECT_EQ(service.epochs_cleared(), 0);

  // The service is not wedged: the next clear succeeds, reusing epoch 0.
  const EpochReport report = service.run_epoch();
  EXPECT_EQ(report.epoch, 0);
  EXPECT_EQ(service.epochs_cleared(), 1);

  // And recovery reads the shape back: one aborted epoch, one settled.
  pcn::Network recovered = make_network(config);
  Journal reopened(path);
  const RecoveryReport recovery =
      recover(reopened, SnapshotStore(reopened.path()),
              recovered, config.policy);
  EXPECT_EQ(recovery.aborted_epochs, 1);
  EXPECT_EQ(recovery.epochs_settled, 1);
  EXPECT_EQ(recovery.next_epoch, 1);
  expect_networks_equal(recovered, net);
}

TEST(Chaos, DaemonRestartWithJournalResumesSeamlessly) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  const std::string path = scratch_path("daemon.jrn");

  DaemonConfig daemon_config;
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  daemon_config.journal_path = path;
  {
    Daemon daemon(make_network(config), core::make_mechanism("m3", {}),
                  daemon_config);
    daemon.start(/*periodic_epochs=*/false);
    daemon.service().run_epoch();
    daemon.service().run_epoch();
    fault::configure("svc.crash_after_commit@1=crash");
    EXPECT_THROW(daemon.service().run_epoch(), fault::CrashPoint);
    fault::clear();
    daemon.stop();
  }

  Daemon daemon(make_network(config), core::make_mechanism("m3", {}),
                daemon_config);
  EXPECT_TRUE(daemon.recovery().applied_inflight);
  EXPECT_EQ(daemon.recovery().next_epoch, 3);
  EXPECT_EQ(daemon.recovery().epochs_settled, 3);
  daemon.start(/*periodic_epochs=*/false);
  const EpochReport report = daemon.service().run_epoch();
  EXPECT_EQ(report.epoch, 3);
  EXPECT_EQ(report.network_digest, baseline.reports[3].network_digest);
  expect_networks_equal(daemon.network_snapshot(), baseline.final_net);
  daemon.stop();
}

// --- checkpoint / compaction chaos ------------------------------------

/// Like crash_and_recover, but with checkpointing live (snapshot every 2
/// epochs, so the FIRST checkpoint runs inside epoch 1's run_epoch), so
/// recover() may find a snapshot to start from. The spec is armed
/// before epoch 1, whose trailing checkpoint is where the new fault
/// points fire. Asserts convergence to the oracle and returns the
/// recovery report for precedence checks.
RecoveryReport checkpoint_crash_and_recover(const sim::SimulationConfig& config,
                                            const std::string& path,
                                            const std::string& spec,
                                            const Baseline& baseline) {
  constexpr int kSnapshotEvery = 2;
  core::M3DoubleAuction mechanism;
  log_artifact("schedules.txt", path + ": " + spec);
  {
    Journal journal(path);
    SnapshotStore snapshots(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    service_config.snapshots = &snapshots;
    service_config.snapshot_every = kSnapshotEvery;
    RebalanceService service(net, mechanism, service_config);
    service.run_epoch();
    fault::configure(spec);
    EXPECT_THROW(service.run_epoch(), fault::CrashPoint)
        << "spec " << spec << " did not kill the checkpoint";
    fault::clear();
  }  // dead process, mid-checkpoint

  // Epoch 1 settled before the checkpoint began, so whatever the crash
  // left on disk, recovery must land on the epoch-2 boundary.
  Journal journal(path);
  SnapshotStore snapshots(path);
  pcn::Network net = make_network(config);
  const RecoveryReport recovery = recover(journal, snapshots, net,
                                          config.policy);
  EXPECT_EQ(recovery.next_epoch, 2) << "spec " << spec;
  EXPECT_EQ(net.state_digest(), baseline.reports[1].network_digest)
      << "spec " << spec;

  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.snapshots = &snapshots;
  service_config.snapshot_every = kSnapshotEvery;
  service_config.first_epoch = recovery.next_epoch;
  service_config.initial_watermarks = recovery.watermarks;
  service_config.initial_ewma_seconds = recovery.ewma_seconds;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = recovery.next_epoch; epoch < kTotalEpochs; ++epoch) {
    const EpochReport report = service.run_epoch();
    EXPECT_EQ(report.epoch, epoch);
    EXPECT_EQ(report.network_digest,
              baseline.reports[static_cast<std::size_t>(epoch)].network_digest)
        << "spec " << spec << " diverged at epoch " << epoch;
  }
  EXPECT_EQ(net.state_digest(), baseline.final_net.state_digest())
      << "spec " << spec;
  expect_networks_equal(net, baseline.final_net);
  return recovery;
}

// Kill -9 at every stage of the checkpoint protocol — before the roll,
// before the snapshot tmp write, between tmp write and rename, and
// after the rename but before compaction — must recover to the exact
// fault-free state. The epoch itself settled first, so nothing is ever
// lost; the crash only determines which artifacts recovery starts from.
TEST(Chaos, CrashAtEveryCheckpointPointConverges) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);

  {
    // Before the roll: no new segment, no snapshot — genesis replay.
    SCOPED_TRACE("segment.roll");
    const RecoveryReport recovery = checkpoint_crash_and_recover(
        config, scratch_path("ckpt_roll.jrn"), "segment.roll@1=crash",
        baseline);
    EXPECT_FALSE(recovery.from_snapshot);
    EXPECT_EQ(recovery.epochs_settled, 2);
  }
  {
    // Before the snapshot tmp write: segment rolled, no snapshot.
    SCOPED_TRACE("snapshot.write");
    const RecoveryReport recovery = checkpoint_crash_and_recover(
        config, scratch_path("ckpt_write.jrn"), "snapshot.write@1=crash",
        baseline);
    EXPECT_FALSE(recovery.from_snapshot);
  }
  {
    // Between tmp write and rename: an orphaned tmp, no snapshot.
    SCOPED_TRACE("snapshot.rename");
    const RecoveryReport recovery = checkpoint_crash_and_recover(
        config, scratch_path("ckpt_rename.jrn"), "snapshot.rename@1=crash",
        baseline);
    EXPECT_FALSE(recovery.from_snapshot);
  }
  {
    // After the rename, before compaction: snapshot AND the full
    // pre-checkpoint history both on disk — recovery must prefer the
    // snapshot (and tolerate the redundant segments).
    SCOPED_TRACE("compact.unlink");
    const std::string path = scratch_path("ckpt_unlink.jrn");
    const RecoveryReport recovery = checkpoint_crash_and_recover(
        config, path, "compact.unlink@1=crash", baseline);
    EXPECT_TRUE(recovery.from_snapshot);
    EXPECT_EQ(recovery.snapshot_epoch, 2);
    EXPECT_EQ(recovery.snapshots_discarded, 0);
    // The freshly rolled tail segment is always scanned, even though
    // nothing past the snapshot was ever written into it.
    EXPECT_EQ(recovery.segments_replayed, 1);
    EXPECT_EQ(recovery.epochs_settled, 0);
  }
}

// Bits rot on the way to disk: the checkpoint publishes a corrupt
// snapshot it cannot detect and dies. Recovery's end-to-end validation
// must reject it and fall back — here to genesis replay, since the
// first checkpoint never completed and segment 0 still exists.
TEST(Chaos, CorruptPublishedSnapshotDiscardedOnRecovery) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  const RecoveryReport recovery = checkpoint_crash_and_recover(
      config, scratch_path("ckpt_corrupt.jrn"),
      "seed=42;snapshot.write@1=corrupt", baseline);
  EXPECT_FALSE(recovery.from_snapshot);
  EXPECT_EQ(recovery.snapshots_discarded, 1);
  EXPECT_EQ(recovery.epochs_settled, 2);
}

// ENOSPC while writing the snapshot: the checkpoint fails, the service
// must shrug it off — the epoch is already durable in the journal, the
// previous snapshot and the live segments are untouched, and the next
// checkpoint simply tries again.
TEST(Chaos, DiskFullDuringSnapshotIsNonFatalAndPreservesPredecessor) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  const std::string path = scratch_path("ckpt_enospc.jrn");

  core::M3DoubleAuction mechanism;
  Journal journal(path);
  SnapshotStore snapshots(path);
  pcn::Network net = make_network(config);
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.snapshots = &snapshots;
  service_config.snapshot_every = 2;
  RebalanceService service(net, mechanism, service_config);

  // Epochs 0-2 land normally, with the first checkpoint after epoch 1.
  service.run_epoch();
  service.run_epoch();
  service.run_epoch();
  ASSERT_EQ(snapshots.entries().size(), 1u);
  const std::uint64_t first_snapshot_segment = journal.oldest_segment();

  // Epoch 3's trailing checkpoint hits ENOSPC on the snapshot write:
  // the epoch's BEGIN/OUTCOME/SETTLED appends are disk.full hits 1-3,
  // the snapshot body is hit 4.
  fault::configure("disk.full@4=fail");
  const EpochReport report = service.run_epoch();
  fault::clear();

  // Non-fatal: the epoch settled and matches the oracle bit for bit.
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.network_digest, baseline.reports[3].network_digest);
  expect_networks_equal(net, baseline.final_net);
  // The failed snapshot disturbed nothing: same single valid snapshot,
  // no stray tmp promoted, no history compacted.
  ASSERT_EQ(snapshots.entries().size(), 1u);
  EXPECT_TRUE(snapshots.entries()[0].valid);
  EXPECT_EQ(journal.oldest_segment(), first_snapshot_segment);

  // And the service is not wedged: the next cadence boundary checkpoints
  // successfully.
  service.run_epoch();
  service.run_epoch();
  EXPECT_EQ(snapshots.entries().size(), 2u);
}

// A degraded epoch in the recovery tail: the epoch after the last
// checkpoint degrades down the ladder (DEGRADED records between BEGIN
// and OUTCOME), and a restart must replay it bit-for-bit from the
// snapshot, counting it as degraded.
TEST(Chaos, SnapshotThenDegradedTailReplaysExactly) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const std::string path = scratch_path("ckpt_degraded_tail.jrn");

  core::M3DoubleAuction mechanism;
  std::uint64_t live_digest = 0;
  {
    Journal journal(path);
    SnapshotStore snapshots(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    service_config.snapshots = &snapshots;
    service_config.snapshot_every = 2;
    service_config.epoch_deadline = std::chrono::milliseconds(150);
    service_config.degradation_ladder = {"m2-minfee"};
    RebalanceService service(net, mechanism, service_config);
    // Checkpoints after epochs 1 and 3; deadline hit 5 is epoch 4's
    // primary attempt, so the degraded epoch is squarely in the tail.
    fault::configure("deadline.expire@5=delay:300");
    for (int epoch = 0; epoch < 5; ++epoch) {
      const EpochReport report = service.run_epoch();
      EXPECT_FALSE(report.aborted);
      EXPECT_EQ(report.degradation_level, epoch == 4 ? 1 : 0);
    }
    fault::clear();
    live_digest = net.state_digest();
  }

  Journal journal(path);
  SnapshotStore snapshots(path);
  pcn::Network net = make_network(config);
  const RecoveryReport recovery = recover(journal, snapshots, net,
                                          config.policy);
  EXPECT_TRUE(recovery.from_snapshot);
  EXPECT_EQ(recovery.snapshot_epoch, 4);
  EXPECT_EQ(recovery.degraded_epochs, 1);
  EXPECT_EQ(recovery.next_epoch, 5);
  EXPECT_EQ(net.state_digest(), live_digest);
}

// Recovery itself crashing (the close-out SETTLED append dies) and
// being retried must still apply the in-flight outcome exactly once.
TEST(Chaos, DoubleCrashDuringRecoveryStaysExactlyOnce) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  const std::string path = scratch_path("double_crash.jrn");

  core::M3DoubleAuction mechanism;
  {
    Journal journal(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    RebalanceService service(net, mechanism, service_config);
    service.run_epoch();
    fault::configure("svc.crash_after_commit@1=crash");
    EXPECT_THROW(service.run_epoch(), fault::CrashPoint);
    fault::clear();
  }

  // First recovery attempt: the journal append of the close-out SETTLED
  // record is itself killed — the second crash.
  {
    Journal journal(path);
    pcn::Network net = make_network(config);
    fault::configure("journal.write@1=crash");
    EXPECT_THROW(
        recover(journal, SnapshotStore(journal.path()), net, config.policy),
        fault::CrashPoint);
    fault::clear();
  }

  // Second attempt sees the identical BEGIN+OUTCOME tail (the crashed
  // close-out wrote nothing durable) and applies the outcome once.
  Journal journal(path);
  pcn::Network net = make_network(config);
  const RecoveryReport recovery =
      recover(journal, SnapshotStore(journal.path()), net, config.policy);
  EXPECT_TRUE(recovery.applied_inflight);
  EXPECT_EQ(recovery.next_epoch, 2);
  EXPECT_EQ(net.state_digest(), baseline.reports[1].network_digest);
  const std::vector<JournalRecord> written = scan_journal(path).records;
  ASSERT_FALSE(written.empty());
  EXPECT_EQ(written.back().type, RecordType::kSettled);

  // Resume to the end of the oracle run.
  ServiceConfig service_config;
  service_config.policy = config.policy;
  service_config.journal = &journal;
  service_config.first_epoch = recovery.next_epoch;
  RebalanceService service(net, mechanism, service_config);
  for (int epoch = recovery.next_epoch; epoch < kTotalEpochs; ++epoch) {
    service.run_epoch();
  }
  expect_networks_equal(net, baseline.final_net);
}

// Duplicate suppression across a checkpointed restart: a sequenced bid
// drained into a committed epoch must still answer kDuplicate after the
// daemon reboots from a snapshot — the watermark rides the snapshot,
// not just the BEGIN payloads (which compaction may have removed).
TEST(Chaos, ResubmitAfterCheckpointedRestartIsDuplicate) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  const std::string path = scratch_path("restart_dup.jrn");

  DaemonConfig daemon_config;
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  daemon_config.journal_path = path;
  daemon_config.snapshot_every = 1;
  {
    Daemon daemon(make_network(config), core::make_mechanism("m3", {}),
                  daemon_config);
    daemon.start(/*periodic_epochs=*/false);
    Client client(daemon.endpoint());
    BidSubmission bid;
    bid.player = 3;
    const BidAckMsg ack = client.submit(bid);
    ASSERT_EQ(ack.status, IntakeStatus::kAccepted);
    ASSERT_EQ(ack.seq, 1u);
    // Drained into epoch 0, committed, checkpointed (cadence 1), and
    // the covered segments compacted away.
    daemon.service().run_epoch();
    daemon.service().run_epoch();
    daemon.stop();
  }

  Daemon daemon(make_network(config), core::make_mechanism("m3", {}),
                daemon_config);
  EXPECT_TRUE(daemon.recovery().from_snapshot);
  daemon.start(/*periodic_epochs=*/false);
  // The ambiguous-timeout replay: same player, same pinned seq.
  Client client(daemon.endpoint());
  BidSubmission bid;
  bid.player = 3;
  bid.seq = 1;
  const BidAckMsg ack = client.submit(bid);
  EXPECT_EQ(ack.status, IntakeStatus::kDuplicate);
  EXPECT_EQ(daemon.service().intake_counters().accepted, 0u);
  daemon.stop();
}

// --- client-side resilience -------------------------------------------

ClientConfig resilient_config() {
  ClientConfig config;
  config.max_attempts = 5;
  config.backoff_base = std::chrono::milliseconds(10);
  config.backoff_max = std::chrono::milliseconds(80);
  config.jitter_seed = 7;
  return config;
}

std::unique_ptr<Daemon> wire_daemon(const sim::SimulationConfig& config,
                                    DaemonConfig daemon_config = {}) {
  daemon_config.service.policy = config.policy;
  daemon_config.server.listen = "tcp:0";
  auto daemon = std::make_unique<Daemon>(
      make_network(config), core::make_mechanism("m3", {}), daemon_config);
  daemon->start(/*periodic_epochs=*/false);
  return daemon;
}

TEST(Chaos, DroppedSubmitFrameRetriedIdempotently) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  auto daemon = wire_daemon(config);

  Client client(daemon->endpoint(), resilient_config());
  client.hello(0);
  // configure() resets hit counters, so the next client send — the
  // submit — is hit 1, and it vanishes on the wire.
  fault::configure("wire.client.send@1=drop");
  BidSubmission bid;
  bid.player = 3;
  const BidAckMsg ack = client.submit(bid, std::chrono::milliseconds(300));
  fault::clear();

  // The first copy never reached the server, so the retry is the one
  // and only intake: accepted, not duplicate.
  EXPECT_EQ(ack.status, IntakeStatus::kAccepted);
  const IntakeCounters counters = daemon->service().intake_counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.duplicate, 0u);
  EXPECT_EQ(daemon->service().run_epoch().bids_applied, 1u);
  daemon->stop();
}

TEST(Chaos, LostAckResubmissionDedupedBySequence) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  auto daemon = wire_daemon(config);

  Client client(daemon->endpoint(), resilient_config());
  // No hello: the server's first send is the bid ack. Drop it — the
  // classic ambiguous timeout where the bid landed but the client
  // cannot know.
  fault::configure("wire.server.send@1=drop");
  BidSubmission bid;
  bid.player = 5;
  const BidAckMsg ack = client.submit(bid, std::chrono::milliseconds(300));
  fault::clear();

  // The resubmitted copy was collapsed by the sequence watermark: the
  // earlier intake stands, exactly one bid is queued for the player.
  EXPECT_EQ(ack.status, IntakeStatus::kDuplicate);
  EXPECT_EQ(ack.seq, 1u);
  const IntakeCounters counters = daemon->service().intake_counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.duplicate, 1u);
  EXPECT_EQ(daemon->service().run_epoch().bids_applied, 1u);
  daemon->stop();
}

TEST(Chaos, TruncatedFrameEventuallyLandsExactlyOnce) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  auto daemon = wire_daemon(config);

  Client client(daemon->endpoint(), resilient_config());
  // Truncating the submit leaves the server's parser mid-frame; the
  // retry's bytes then misparse, the server errors the connection, and
  // the client reconnects and resubmits the pinned sequence number.
  fault::configure("wire.client.send@1=truncate");
  BidSubmission bid;
  bid.player = 3;
  const BidAckMsg ack = client.submit(bid, std::chrono::milliseconds(300));
  fault::clear();

  EXPECT_TRUE(intake_ok(ack.status) ||
              ack.status == IntakeStatus::kDuplicate)
      << to_string(ack.status);
  const IntakeCounters counters = daemon->service().intake_counters();
  EXPECT_EQ(counters.accepted, 1u);
  // Exactly one bid in the queue, for the right player.
  const EpochReport report = daemon->service().run_epoch();
  EXPECT_EQ(report.bids_applied, 1u);
  daemon->stop();
}

TEST(Chaos, ConnectFailureRetriedWithBackoff) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  auto daemon = wire_daemon(config);

  // Fail-fast construction surfaces the connect error unchanged...
  fault::configure("sock.connect@1=fail");
  EXPECT_THROW(Client probe(daemon->endpoint()), std::runtime_error);
  fault::clear();

  // ...while a resilient client rides through a refused reconnect.
  Client client(daemon->endpoint(), resilient_config());
  client.close();  // connection lost; next submit must reconnect
  fault::configure("sock.connect@1=fail");
  BidSubmission bid;
  bid.player = 2;
  const BidAckMsg ack = client.submit(bid, std::chrono::milliseconds(300));
  // Two connect attempts: the injected refusal, then the one that stuck.
  const std::uint64_t connects = fault::hits("sock.connect");
  fault::clear();
  EXPECT_EQ(ack.status, IntakeStatus::kAccepted);
  EXPECT_EQ(connects, 2u);
  daemon->stop();
}

TEST(Chaos, ShedConnectionCarriesRetryAfterHint) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(11);
  DaemonConfig daemon_config;
  daemon_config.server.max_connections = 1;
  daemon_config.server.shed_retry_after_ms = 123;
  auto daemon = wire_daemon(config, daemon_config);

  Client first(daemon->endpoint());
  BidSubmission bid;
  bid.player = 0;
  ASSERT_TRUE(intake_ok(first.submit(bid).status));

  // The second connection is shed at accept with a structured hint.
  bool saw_busy = false;
  try {
    Client second(daemon->endpoint());
    BidSubmission b1;
    b1.player = 1;
    second.submit(b1, std::chrono::milliseconds(500));
  } catch (const ServerBusyError& busy) {
    saw_busy = true;
    EXPECT_EQ(busy.retry_after_ms, 123u);
  } catch (const std::runtime_error&) {
    // The server closed before the error frame was read — rare loopback
    // race; the shed still happened, just without the hint observed.
  }
  EXPECT_TRUE(saw_busy);

  // Once the slot frees, a resilient client's backoff-and-retry loop
  // gets through on its own.
  first.close();
  Client third(daemon->endpoint(), resilient_config());
  BidSubmission b2;
  b2.player = 2;
  const BidAckMsg ack = third.submit(b2, std::chrono::milliseconds(500));
  EXPECT_TRUE(intake_ok(ack.status));
  daemon->stop();
}

// --- deadline / degradation chaos -------------------------------------

/// Arms a (never-firing) deadline on every epoch so the deadline fault
/// points are live, without changing any outcome.
void with_deadline(ServiceConfig& config) {
  config.epoch_deadline = std::chrono::milliseconds(60000);
}

// Crashing at the moment an attempt arms its deadline — or at the
// moment a degradation rung is journaled — must recover exactly like
// any other pre-commit kill: the epoch rolls back and the rebooted
// daemon converges to the fault-free oracle.
TEST(Chaos, CrashAtDeadlinePointsConverges) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  ASSERT_GT(baseline.reports[kCrashEpoch].game_edges, 0);

  {
    SCOPED_TRACE("deadline.expire");
    const RecoveryReport recovery = crash_and_recover(
        config, scratch_path("deadline_expire.jrn"),
        "deadline.expire@1=crash", kCrashEpoch, baseline, with_deadline);
    EXPECT_FALSE(recovery.applied_inflight);
    EXPECT_EQ(recovery.rolled_back, 1);
    EXPECT_EQ(recovery.next_epoch, kCrashEpoch);
  }
  {
    // A 300 ms injected delay burns the 150 ms deadline, so the primary
    // attempt is cancelled deterministically; the crash then lands on
    // the degrade.fail hook, right after the DEGRADED record.
    SCOPED_TRACE("degrade.fail");
    const RecoveryReport recovery = crash_and_recover(
        config, scratch_path("degrade_fail.jrn"),
        "deadline.expire@1=delay:300;degrade.fail@1=crash", kCrashEpoch,
        baseline, [](ServiceConfig& service_config) {
          service_config.epoch_deadline = std::chrono::milliseconds(150);
        });
    EXPECT_FALSE(recovery.applied_inflight);
    EXPECT_EQ(recovery.rolled_back, 1);
    EXPECT_EQ(recovery.next_epoch, kCrashEpoch);
    // The dangling DEGRADED record replays as exactly one degraded rung.
    EXPECT_EQ(recovery.degraded_epochs, 1);
  }
}

// A deterministically induced degradation (injected delay burns epoch
// 1's deadline, the m2-minfee rung clears it) must survive the full
// journal round trip: replay reproduces the degraded epoch's digest bit
// for bit and reports it as degraded.
TEST(Chaos, InjectedDeadlineExpiryDegradesAndReplaysConsistently) {
  SKIP_WITHOUT_FAULTS();
  const sim::SimulationConfig config = small_config(5);
  const std::string path = scratch_path("degraded_replay.jrn");

  core::M3DoubleAuction mechanism;
  std::uint64_t live_digest = 0;
  {
    Journal journal(path);
    pcn::Network net = make_network(config);
    ServiceConfig service_config;
    service_config.policy = config.policy;
    service_config.journal = &journal;
    service_config.epoch_deadline = std::chrono::milliseconds(150);
    service_config.degradation_ladder = {"m2-minfee"};
    RebalanceService service(net, mechanism, service_config);
    // Hit 2 of deadline.expire is epoch 1's primary attempt; the rung
    // re-arms a fresh deadline (hit 3) and clears unhindered.
    fault::configure("deadline.expire@2=delay:300");
    for (int epoch = 0; epoch < kTotalEpochs; ++epoch) {
      const EpochReport report = service.run_epoch();
      EXPECT_FALSE(report.aborted);
      EXPECT_EQ(report.degradation_level, epoch == 1 ? 1 : 0)
          << "epoch " << epoch;
    }
    fault::clear();
    live_digest = net.state_digest();
  }

  Journal reopened(path);
  pcn::Network recovered = make_network(config);
  const RecoveryReport recovery =
      recover(reopened, SnapshotStore(reopened.path()),
              recovered, config.policy);
  EXPECT_EQ(recovery.epochs_settled, kTotalEpochs);
  EXPECT_EQ(recovery.degraded_epochs, 1);
  EXPECT_EQ(recovery.next_epoch, kTotalEpochs);
  EXPECT_EQ(recovered.state_digest(), live_digest);
}

// The CI entry point: MUSK_CHAOS_SEED picks which service point dies and
// when, so repeated runs sweep the schedule space deterministically.
TEST(Chaos, SeededCrashScheduleConverges) {
  SKIP_WITHOUT_FAULTS();
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("MUSK_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  util::Rng rng(seed != 0 ? seed : 1);
  const char* points[] = {
      "svc.crash_after_begin", "svc.crash_before_commit",
      "svc.crash_after_commit", "svc.crash_mid_settle"};
  const char* point = points[rng.uniform(4)];
  const int crash_epoch = static_cast<int>(rng.uniform(kTotalEpochs - 1));

  const sim::SimulationConfig config = small_config(5);
  const Baseline baseline = run_baseline(config);
  ASSERT_GT(baseline.reports[static_cast<std::size_t>(crash_epoch)].game_edges,
            0);
  SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " -> " + point +
               " at epoch " + std::to_string(crash_epoch));
  crash_and_recover(config,
                    scratch_path("seeded_" + std::to_string(seed) + ".jrn"),
                    std::string(point) + "@1=crash", crash_epoch, baseline);
}

}  // namespace
}  // namespace musketeer::svc
