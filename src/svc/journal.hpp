// Crash-safe epoch journal: an append-only, checksummed write-ahead log
// that makes settlement atomic across daemon restarts — now stored as a
// sequence of rotated segments so checkpointing (svc/snapshot.hpp) can
// compact history the newest snapshot already covers.
//
// Per epoch the service appends up to three records:
//
//   BEGIN(epoch, pre_digest)          queue drained, capacities locked;
//                                     payload carries the drained
//                                     (player, seq) intake watermarks
//   OUTCOME(epoch, pre_digest, bytes) the cleared outcome, fsync'd
//                                     *before* apply_outcome runs
//   SETTLED(epoch, post_digest)       settlement reached the network
//
// plus ABORTED(epoch, pre_digest) when the mechanism throws and the
// service released the locks instead of settling, and
// DEGRADED(epoch, pre_digest, level + reason) each time the epoch
// deadline expired and the service retried the same epoch one rung down
// the degradation ladder (DESIGN.md §14) — zero or more DEGRADED
// records sit between a BEGIN and its OUTCOME/ABORTED, so replay
// reproduces exactly the mechanism the degraded epoch actually cleared
// with. The fsync'd OUTCOME record is the commit point: recovery
// (svc::recover, svc/snapshot.hpp) starts from the newest valid
// snapshot, or from the genesis network when there is none, and re-runs
// the journal forward from there (replay_records) —
//
//   * every OUTCOME is re-applied exactly once (extraction from an
//     identical pre-state is deterministic, verified by pre_digest);
//   * a SETTLED record cross-checks the post-settlement digest;
//   * a BEGIN with no OUTCOME is rolled back: the locks it took lived
//     only in the dead process, so there is nothing to release;
//   * a trailing OUTCOME with no SETTLED (crash between commit and
//     settle, or mid-settle) is applied and then closed with a SETTLED
//     record, so the epoch settles exactly once no matter how many
//     times recovery itself is interrupted.
//
// On-disk layout (DESIGN.md §15): the journal at base path `P` is the
// segment files `P.<seq>.wal` (seq zero-padded to at least 6 digits).
// Each segment starts with the 8-byte header "MUSKJRN1", then records
//
//   u32 magic 'MJRN' | u8 type | u32 epoch | u64 digest |
//   u32 payload_len | payload | u64 fnv1a(type..payload)
//
// Appends go to the newest segment. Segments roll only at checkpoints:
// roll_segment() runs right before each snapshot, so a recovery tail
// always starts at a BEGIN. compact_below(seq) unlinks whole segments a
// durable snapshot has made redundant.
//
// On open the journal lists the segment files in its directory, scans
// the chain in seq order, keeps the longest valid record prefix, and
// discards the torn/corrupt tail (the rest of the damaged segment and
// every later segment — those can only be crash artifacts, because
// append returns only after fsync). A segment that cannot be read at
// all is no crash artifact: open throws instead of discarding it.
//
// Scope: the journal records rebalancing settlements only. A recovered
// network equals the crashed daemon's network exactly when rebalancing
// was the only writer (true for musketeerd, whose network has no
// external payment feed).
//
// Appends are serialized internally (rank kJournal, below the service's
// epoch lock that normally drives them); the read accessors assume a
// quiescent journal — recovery runs before the service exists, and
// tests inspect records between epochs.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/outcome.hpp"
#include "core/types.hpp"
#include "pcn/network.hpp"
#include "pcn/rebalancer.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::svc {

/// Thrown on an unusable journal (wrong header, I/O failure, replay
/// digest mismatch). Distinct from a torn tail, which open() repairs
/// silently — a JournalError means the operator pointed the daemon at
/// the wrong file, the wrong genesis network, or the disk itself
/// failed. I/O failures carry the failing operation and its errno so
/// callers can distinguish ENOSPC / EROFS from corruption.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
  JournalError(const std::string& what, std::string op, int saved_errno)
      : std::runtime_error(what),
        op_(std::move(op)),
        saved_errno_(saved_errno) {}

  /// The syscall-level operation that failed ("write", "fsync",
  /// "rename", ...); empty for logical errors (bad header, digest
  /// mismatch, malformed record sequence).
  const std::string& op() const { return op_; }
  /// errno captured at the failure site; 0 for logical errors.
  int saved_errno() const { return saved_errno_; }

 private:
  std::string op_;
  int saved_errno_ = 0;
};

enum class RecordType : std::uint8_t {
  kBegin = 1,
  kOutcome = 2,
  kSettled = 3,
  kAborted = 4,
  /// Deadline expired mid-epoch; the service is retrying the same epoch
  /// with a cheaper mechanism. Annotation only — the network state is
  /// unchanged (digest repeats the epoch's pre-digest).
  kDegraded = 5,
};

/// Lowercase record type name ("begin", "outcome", ...), for traces and
/// `musk_journal inspect`.
const char* to_string(RecordType type);

struct JournalRecord {
  RecordType type = RecordType::kBegin;
  int epoch = 0;
  /// BEGIN/OUTCOME/ABORTED carry the pre-settlement network digest;
  /// SETTLED carries the post-settlement digest.
  std::uint64_t digest = 0;
  /// BEGIN: encode_watermarks of the (player, seq) pairs drained into
  /// the epoch (empty when no sequenced bids were drained).
  /// OUTCOME: codec::encode_outcome bytes. DEGRADED: u8 ladder level
  /// (1 = first retry rung) followed by the reason string — the
  /// mechanism name the retry is about to run with.
  std::string payload;
};

/// Per-player intake sequence watermarks, sorted by player id. Carried
/// in BEGIN payloads and snapshots so a restarted daemon can keep
/// answering kDuplicate for bids that were drained into a *committed*
/// epoch before the crash (bids drained into rolled-back epochs had no
/// effect, so their seqs must stay resubmittable).
using SeqWatermarks = std::vector<std::pair<core::PlayerId, std::uint32_t>>;

std::string encode_watermarks(const SeqWatermarks& watermarks);
/// Throws core::CodecError on malformed payload bytes.
SeqWatermarks decode_watermarks(std::string_view payload);

/// Path of segment `seq` of the journal at `base_path`
/// (`<base>.<seq, at least 6 digits>.wal`).
std::string segment_path(const std::string& base_path, std::uint64_t seq);
/// Segment seqs present on disk for `base_path`, ascending. Read-only.
std::vector<std::uint64_t> list_segments(const std::string& base_path);

/// One segment file as seen by a read-only scan.
struct SegmentStat {
  std::uint64_t seq = 0;
  std::string path;
  /// Bytes on disk / bytes of the longest valid prefix (header +
  /// intact records). Differ exactly when the segment is torn/corrupt.
  std::uint64_t file_bytes = 0;
  std::uint64_t valid_bytes = 0;
  std::size_t records = 0;
  bool header_ok = false;
  bool clean = false;  ///< header_ok and no torn/corrupt tail
  /// Set when the file exists but cannot be read (EACCES, EIO, ELOOP,
  /// ...): the failing op and errno. Journal's constructor throws it.
  std::optional<JournalError> read_error;
};

/// Result of a read-only walk over the journal's on-disk state: what
/// Journal::open would recover, without mutating anything. Used by
/// `musk_journal inspect|verify` and the recovery fuzzer.
struct JournalScan {
  std::vector<SegmentStat> segments;  ///< ascending seq
  /// The longest valid record prefix across the segment chain (records
  /// past the first damaged segment are crash artifacts and excluded).
  std::vector<JournalRecord> records;
  bool clean = true;  ///< every segment clean, chain contiguous
  std::string note;   ///< first problem found (diagnostic)
};

/// Scans the segments without opening anything for write. Never
/// repairs; never throws on corruption (corruption is the *answer*).
JournalScan scan_journal(const std::string& base_path);

class Journal {
 public:
  /// Opens (creating if absent) the journal at `base_path`, validates
  /// the segment chain, loads every intact record, and truncates or
  /// unlinks any torn/corrupt tail. Throws JournalError, unlinking
  /// nothing, when a segment file cannot be read.
  explicit Journal(std::string base_path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const std::string& path() const { return path_; }

  /// The committed records of the live segments, in stream order: what
  /// open() recovered plus every append since. compact_below() drops
  /// the records of the segments it unlinks, so a checkpointing
  /// daemon's memory stays bounded by its journal tail; indices (and
  /// records_from_segment) are valid until the next compaction.
  const std::vector<JournalRecord>& records() const { return records_; }

  /// Bytes of committed (written + fsync'd) journal across all *live*
  /// segments — compaction subtracts what it unlinks. Atomic so the
  /// stats endpoint can read it while the clearing thread appends (the
  /// other read accessors remain quiescent-only).
  std::uint64_t committed_bytes() const {
    return committed_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes discarded by open() as a torn/corrupt tail (observability).
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

  /// Live segment count / active (newest) segment seq / oldest live
  /// segment seq. segment_count() is atomic for the stats endpoint.
  std::uint64_t segment_count() const {
    return segment_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t current_segment() const MUSK_EXCLUDES(mutex_);
  std::uint64_t oldest_segment() const MUSK_EXCLUDES(mutex_);

  /// Index into records() of the first record stored in a live segment
  /// with seq >= `seq` (records().size() when no such record): the
  /// recovery tail for a snapshot whose first_segment is `seq`.
  std::size_t records_from_segment(std::uint64_t seq) const
      MUSK_EXCLUDES(mutex_);

  /// Closes the active segment and opens a fresh one (header written
  /// and fsync'd). Called at checkpoints, between epochs.
  void roll_segment() MUSK_EXCLUDES(mutex_);

  /// Unlinks every live segment with seq < `seq_bound` (never the
  /// active one) and drops its records from records(); returns how many
  /// segments were removed. The caller guarantees a durable snapshot
  /// covers the removed history
  /// (svc::SnapshotStore::oldest_retained_first_segment).
  std::size_t compact_below(std::uint64_t seq_bound) MUSK_EXCLUDES(mutex_);

  void append_begin(int epoch, std::uint64_t pre_digest)
      MUSK_EXCLUDES(mutex_);
  /// BEGIN carrying the intake watermarks drained into the epoch.
  void append_begin(int epoch, std::uint64_t pre_digest,
                    const SeqWatermarks& drained) MUSK_EXCLUDES(mutex_);
  void append_outcome(int epoch, std::uint64_t pre_digest,
                      const core::Outcome& outcome) MUSK_EXCLUDES(mutex_);
  void append_settled(int epoch, std::uint64_t post_digest)
      MUSK_EXCLUDES(mutex_);
  void append_aborted(int epoch, std::uint64_t pre_digest)
      MUSK_EXCLUDES(mutex_);
  /// Records one rung of the degradation ladder: the epoch's deadline
  /// expired at `level - 1` attempts and the service is about to retry
  /// with the mechanism named in `reason`. `pre_digest` must equal the
  /// epoch's BEGIN digest — the failed attempt was rolled back before
  /// this record is written.
  void append_degraded(int epoch, std::uint64_t pre_digest, int level,
                       const std::string& reason) MUSK_EXCLUDES(mutex_);

 private:
  struct LiveSegment {
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;        ///< committed bytes incl. header
    std::size_t first_record = 0;   ///< index into records_
  };

  /// Encodes, writes, and fsyncs one record; only then is it added to
  /// records_ and counted in committed_bytes_. On fsync failure the
  /// file is truncated back to the committed prefix (a written but
  /// unsynced record must not resurface on replay) and JournalError is
  /// thrown; if even the truncate fails the journal is poisoned and
  /// every later append throws.
  void append(RecordType type, int epoch, std::uint64_t digest,
              const std::string& payload) MUSK_EXCLUDES(mutex_);

  std::string path_;

  /// Serializes appends and segment transitions (the file offset,
  /// poison state, and segment chain are one atomically-advanced
  /// unit). records_/committed_bytes_ are written under it too but
  /// read through the quiescent-only accessors above.
  mutable util::OrderedMutex mutex_{util::LockRank::kJournal, "journal"};
  int fd_ MUSK_GUARDED_BY(mutex_) = -1;
  bool poisoned_ MUSK_GUARDED_BY(mutex_) = false;
  std::vector<LiveSegment> segments_ MUSK_GUARDED_BY(mutex_);

  std::vector<JournalRecord> records_;
  std::atomic<std::uint64_t> committed_bytes_{0};
  std::atomic<std::uint64_t> segment_count_{0};
  std::uint64_t truncated_tail_bytes_ = 0;
};

/// Outcome of recovering a network from its journal at startup.
struct RecoveryReport {
  /// Epochs fully replayed (SETTLED seen, including the close-out
  /// SETTLED that recovery itself appends for an in-flight outcome).
  int epochs_settled = 0;
  /// True when the tail held a committed OUTCOME with no SETTLED — the
  /// daemon died between commit and settle (or mid-settle); recovery
  /// applied it once and closed the epoch.
  bool applied_inflight = false;
  /// BEGIN records with no OUTCOME/ABORTED: the locks died with the
  /// process, nothing durable happened, the epoch number is reused.
  int rolled_back = 0;
  /// ABORTED records seen (mechanism threw or the degradation ladder
  /// was exhausted; epoch number was reused).
  int aborted_epochs = 0;
  /// DEGRADED records seen: ladder rungs taken across all epochs (one
  /// epoch that fell two rungs counts twice).
  int degraded_epochs = 0;
  /// Epoch the restarted service must resume at.
  int next_epoch = 0;
  /// network.state_digest() after replay.
  std::uint64_t final_digest = 0;

  /// Checkpoint fields. All but snapshots_discarded and
  /// segments_replayed stay zero/false when recovery replayed from
  /// genesis.
  bool from_snapshot = false;
  /// next_epoch the snapshot was taken at (recovery replayed only the
  /// journal tail past it).
  int snapshot_epoch = 0;
  /// Snapshot files skipped because their checksum or digest failed.
  int snapshots_discarded = 0;
  /// Live segments whose records were replayed.
  int segments_replayed = 0;
  /// Intake watermarks of every *committed* epoch (snapshot state plus
  /// replayed BEGIN payloads), for BidQueue::restore_watermarks.
  SeqWatermarks watermarks;
  /// Admission-controller EWMA restored from the snapshot (0 when
  /// recovering from genesis or a pre-checkpoint journal).
  double ewma_seconds = 0.0;
  int shed_level = 0;
};

/// Core of the recovery state machine, the engine of svc::recover:
/// replays journal.records()[first_record..] onto `network`, starting
/// from the counters in `seed` (snapshot state, or zeroes for genesis).
/// `network` must be in the state the first replayed record was written
/// against (verified record-by-record via digests; a mismatch throws
/// JournalError). Mutates the journal only to close an in-flight epoch
/// with its missing SETTLED record.
RecoveryReport replay_records(Journal& journal, pcn::Network& network,
                              const pcn::RebalancePolicy& policy,
                              std::size_t first_record, RecoveryReport seed);

}  // namespace musketeer::svc
