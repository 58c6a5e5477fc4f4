// Checkpointed recovery: versioned, checksummed snapshots of the full
// recovery state, so a restarted daemon replays only the journal tail
// written since the last checkpoint instead of every epoch since
// genesis (DESIGN.md §15).
//
// A snapshot captures everything recovery would otherwise reconstruct
// by replay:
//
//   * the pcn::Network channel state and its state_digest(),
//   * the epoch counter the service must resume at,
//   * the per-player intake seq watermarks of every committed epoch
//     (so duplicate-bid detection survives the restart),
//   * the admission controller's shed level and clear-time EWMA,
//   * the journal segment the recovery tail starts at (the service
//     rolls to a fresh segment immediately before snapshotting, so the
//     tail is empty at capture time and every later record lands in
//     segments >= first_segment).
//
// Files are `<journal base>.snap.<seq>` (seq zero-padded to at least 6
// digits, monotonically increasing) and are published atomically: full
// write to `<base>.snap.tmp` + fsync + rename + parent-dir fsync. A reader
// therefore never sees a partial snapshot — only the previous one or
// the new one. Validation is end-to-end: the trailing FNV-1a checksum
// guards the bytes, and the decoded network's state_digest() must equal
// the digest stored beside it, so a snapshot that decodes but drifted
// is rejected just like a torn one.
//
// Recovery precedence (svc::recover): newest digest-valid snapshot,
// older snapshots on corruption, full genesis replay when no valid
// snapshot exists (impossible once compaction has removed segment 0 —
// that is a JournalError, not silent wrong state).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcn/network.hpp"
#include "pcn/rebalancer.hpp"
#include "svc/journal.hpp"

namespace musketeer::svc {

/// The full recovery state captured by one checkpoint.
struct SnapshotData {
  /// Epoch the service resumes at (== epochs settled so far).
  int next_epoch = 0;
  /// network.state_digest() of the captured state; re-verified against
  /// the decoded network on every read.
  std::uint64_t digest = 0;
  /// Journal segment the recovery tail starts at: every record of an
  /// epoch >= next_epoch lives in segments >= first_segment.
  std::uint64_t first_segment = 0;
  /// Committed intake watermarks, sorted by player id.
  SeqWatermarks watermarks;
  /// Admission controller state at capture time.
  int shed_level = 0;
  double ewma_seconds = 0.0;
  /// encode_network() of the captured channel state.
  std::string network_bytes;
};

/// Network state <-> bytes (balances, fee rates, HTLC locks, disabled
/// flags — everything state_digest() covers). decode throws
/// core::CodecError on malformed bytes.
std::string encode_network(const pcn::Network& network);
pcn::Network decode_network(std::string_view bytes);

/// Path of snapshot `seq` for the journal at `base_path`
/// (`<base>.snap.<seq, at least 6 digits>`).
std::string snapshot_path(const std::string& base_path, std::uint64_t seq);
/// Snapshot seqs present on disk for `base_path`, ascending. Read-only.
std::vector<std::uint64_t> list_snapshots(const std::string& base_path);

/// Owns the snapshot files beside a journal. Not internally locked: the
/// daemon writes from the epoch thread (under the service's clear lock)
/// and reads everything else at startup, before the service exists.
class SnapshotStore {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    std::string path;
    /// Checksum intact and decoded network matches the stored digest.
    bool valid = false;
    /// Decoded header fields (meaningful only when valid).
    std::uint64_t first_segment = 0;
    int next_epoch = 0;
  };

  /// Scans (and fully validates) the snapshots at `base_path`. `keep`
  /// bounds how many snapshots survive each write (the newest `keep`).
  explicit SnapshotStore(std::string base_path, int keep = 2);

  const std::string& path() const { return path_; }
  /// Snapshots on disk, ascending seq, validation already done.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Publishes `data` as the next snapshot (tmp + fsync + atomic rename
  /// + parent-dir fsync), then prunes all but the newest `keep`
  /// snapshots. Throws JournalError on I/O failure — with the previous
  /// snapshots and the journal untouched — and CrashPoint from the
  /// snapshot.write / snapshot.rename / disk.full fault hooks.
  void write(const SnapshotData& data);

  /// The oldest journal segment any on-disk snapshot still needs — the
  /// compaction bound: compact_below() of this is always safe. An
  /// invalid snapshot conservatively pins segment 0 (its fallback is a
  /// longer tail, possibly genesis); no snapshots at all pin segment 0.
  std::uint64_t oldest_retained_first_segment() const;

  /// Reads and fully validates one snapshot file. Returns false (with a
  /// diagnostic in `error` when non-null) on any corruption; never
  /// throws on bad bytes.
  static bool read_file(const std::string& file_path, SnapshotData* out,
                        std::string* error);

 private:
  std::string path_;
  int keep_;
  std::vector<Entry> entries_;
};

/// Checkpoint-aware recovery: restores the newest valid snapshot (or
/// the genesis `network` passed in, when none exists) and replays the
/// journal tail through the exactly-once replay machinery. On return
/// `network` holds the recovered state. Throws JournalError when no
/// valid snapshot exists and the journal's genesis history was
/// compacted away.
RecoveryReport recover(Journal& journal, const SnapshotStore& snapshots,
                       pcn::Network& network,
                       const pcn::RebalancePolicy& policy);

}  // namespace musketeer::svc
