#include "svc/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

#include "core/io.hpp"
#include "obs/obs.hpp"
#include "svc/file_io.hpp"
#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

using file_io::fnv1a;
using file_io::load_u64;

constexpr char kHeader[] = "MUSKJRN1";
constexpr std::size_t kHeaderBytes = 8;
// 'M' 'J' 'R' 'N' little-endian.
constexpr std::uint32_t kRecordMagic = 0x4E524A4DU;
// magic + type + epoch + digest + payload_len.
constexpr std::size_t kRecordHeaderBytes = 4 + 1 + 4 + 8 + 4;
constexpr std::size_t kChecksumBytes = 8;
// An OUTCOME payload is one encoded core::Outcome; 16 MiB bounds even a
// pathological million-cycle epoch, and anything larger in the file is
// corruption, not data.
constexpr std::size_t kMaxRecordPayload = 16u << 20;

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string encode_record(RecordType type, int epoch, std::uint64_t digest,
                          const std::string& payload) {
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size() + kChecksumBytes);
  core::codec::put_u32(out, kRecordMagic);
  core::codec::put_u8(out, static_cast<std::uint8_t>(type));
  core::codec::put_u32(out, static_cast<std::uint32_t>(epoch));
  core::codec::put_u64(out, digest);
  core::codec::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  // Checksum covers type..payload: the magic only locates the record.
  core::codec::put_u64(out, fnv1a(out.data() + 4, out.size() - 4));
  return out;
}

// Creates segment file `path` holding only the header, durable together
// with its directory entry, and returns its open fd. On failure the file
// is removed again, so no half-written header is left to fail the next
// open.
int create_segment(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) file_io::fail(path, "open", "open of new segment failed");
  try {
    file_io::write_all(fd, path, kHeader, kHeaderBytes);
    if (::fsync(fd) != 0) file_io::fail(path, "fsync", "fsync failed");
  } catch (...) {
    ::close(fd);
    file_io::remove_file(path);
    throw;
  }
  file_io::fsync_parent_dir(path);
  return fd;
}

// Parses one segment file's bytes: fills `stat` and appends intact
// records to `records` (when non-null).
void scan_segment_bytes(const std::string& buf, SegmentStat* stat,
                        std::vector<JournalRecord>* records) {
  stat->file_bytes = buf.size();
  stat->header_ok = buf.size() >= kHeaderBytes &&
                    std::memcmp(buf.data(), kHeader, kHeaderBytes) == 0;
  if (!stat->header_ok) {
    stat->valid_bytes = 0;
    stat->clean = false;
    return;
  }
  std::size_t off = kHeaderBytes;
  while (buf.size() - off >= kRecordHeaderBytes + kChecksumBytes) {
    const char* rec = buf.data() + off;
    if (load_u32(rec) != kRecordMagic) break;
    const std::uint8_t type = static_cast<std::uint8_t>(rec[4]);
    if (type < static_cast<std::uint8_t>(RecordType::kBegin) ||
        type > static_cast<std::uint8_t>(RecordType::kDegraded)) {
      break;
    }
    const std::uint32_t len = load_u32(rec + 17);
    if (len > kMaxRecordPayload ||
        buf.size() - off - kRecordHeaderBytes < len + kChecksumBytes) {
      break;
    }
    if (fnv1a(rec + 4, kRecordHeaderBytes - 4 + len) !=
        load_u64(rec + kRecordHeaderBytes + len)) {
      break;
    }
    if (records != nullptr) {
      JournalRecord record;
      record.type = static_cast<RecordType>(type);
      record.epoch = static_cast<int>(load_u32(rec + 5));
      record.digest = load_u64(rec + 9);
      record.payload.assign(rec + kRecordHeaderBytes, len);
      records->push_back(std::move(record));
    }
    ++stat->records;
    off += kRecordHeaderBytes + len + kChecksumBytes;
  }
  stat->valid_bytes = off;
  stat->clean = off == buf.size();
}

}  // namespace

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kBegin: return "begin";
    case RecordType::kOutcome: return "outcome";
    case RecordType::kSettled: return "settled";
    case RecordType::kAborted: return "aborted";
    case RecordType::kDegraded: return "degraded";
  }
  return "unknown";
}

std::string encode_watermarks(const SeqWatermarks& watermarks) {
  std::string out;
  // An empty watermark set encodes as an empty payload, byte-identical
  // to a pre-checkpoint BEGIN record.
  if (watermarks.empty()) return out;
  core::codec::put_u32(out, static_cast<std::uint32_t>(watermarks.size()));
  for (const auto& [player, seq] : watermarks) {
    core::codec::put_u32(out, static_cast<std::uint32_t>(player));
    core::codec::put_u32(out, seq);
  }
  return out;
}

SeqWatermarks decode_watermarks(std::string_view payload) {
  SeqWatermarks out;
  if (payload.empty()) return out;
  core::codec::Reader in(payload);
  const std::size_t n = in.check_count(in.u32(), 8);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto player = static_cast<core::PlayerId>(in.u32());
    const std::uint32_t seq = in.u32();
    out.emplace_back(player, seq);
  }
  in.expect_end();
  return out;
}

std::string segment_path(const std::string& base_path, std::uint64_t seq) {
  return file_io::numbered_path(base_path, ".", seq, ".wal");
}

std::vector<std::uint64_t> list_segments(const std::string& base_path) {
  return file_io::list_numbered(base_path, ".", ".wal");
}

JournalScan scan_journal(const std::string& base_path) {
  JournalScan scan;
  const std::vector<std::uint64_t> seqs = list_segments(base_path);

  const auto flag = [&scan](const std::string& note) {
    scan.clean = false;
    if (scan.note.empty()) scan.note = note;
  };

  // Records accumulate across the chain only while every earlier
  // segment was fully clean and the seqs are contiguous; anything past
  // the first damaged point is a crash artifact, not data.
  bool chain_valid = true;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    SegmentStat stat;
    stat.seq = seqs[i];
    stat.path = segment_path(base_path, seqs[i]);
    std::string buf;
    try {
      buf = file_io::read_file(stat.path);
    } catch (const JournalError& e) {
      // A segment deleted since the listing reads as empty; any other
      // failure (EACCES, EIO, ...) is no crash artifact.
      if (e.saved_errno() != ENOENT) {
        flag(e.what());
        chain_valid = false;
        stat.read_error = e;
        scan.segments.push_back(std::move(stat));
        continue;
      }
    }
    if (chain_valid && i > 0 && seqs[i] != seqs[i - 1] + 1) {
      flag("segment gap: " + stat.path + " does not follow segment " +
           std::to_string(seqs[i - 1]));
      chain_valid = false;
    }
    scan_segment_bytes(buf, &stat,
                       chain_valid ? &scan.records : nullptr);
    if (!stat.clean) {
      if (chain_valid && !stat.header_ok) {
        flag("bad segment header: " + stat.path);
      } else if (chain_valid) {
        flag("torn/corrupt tail in " + stat.path + " at byte " +
             std::to_string(stat.valid_bytes));
      }
      chain_valid = false;
    }
    scan.segments.push_back(std::move(stat));
  }
  return scan;
}

Journal::Journal(std::string base_path) : path_(std::move(base_path)) {
  const JournalScan scan = scan_journal(path_);
  // A crash never leaves an unreadable segment: a failing disk or a
  // wrong file owner surfaces as an error and unlinks nothing.
  for (const SegmentStat& seg : scan.segments) {
    if (seg.read_error) throw *seg.read_error;
  }

  // Decide the longest usable prefix of the segment chain; everything
  // after it (rest of a torn segment + all later segments) is removed.
  std::size_t keep = 0;            // fully clean segments kept
  bool keep_cut_segment = false;   // also keep scan.segments[keep]'s prefix
  for (const SegmentStat& seg : scan.segments) {
    const bool contiguous =
        keep == 0 || seg.seq == scan.segments[keep - 1].seq + 1;
    if (!contiguous || !seg.header_ok) break;
    if (!seg.clean) {
      keep_cut_segment = true;
      break;
    }
    ++keep;
  }
  if (keep == 0 && !keep_cut_segment && !scan.segments.empty() &&
      scan.segments[0].file_bytes > 0) {
    // The oldest segment is not a musketeer journal at all: refuse to
    // touch it. (Later segments with bad headers are crash-roll
    // artifacts and are repaired below; the oldest one being garbage
    // means the operator pointed the daemon at the wrong file.)
    throw JournalError("journal " + scan.segments[0].path +
                       ": bad header (not a musketeer journal)");
  }

  std::size_t live = keep + (keep_cut_segment ? 1 : 0);
  std::size_t record_index = 0;
  for (std::size_t i = 0; i < live; ++i) {
    const SegmentStat& seg = scan.segments[i];
    segments_.push_back(LiveSegment{seg.seq, seg.valid_bytes, record_index});
    record_index += seg.records;
  }
  records_.assign(scan.records.begin(),
                  scan.records.begin() +
                      static_cast<std::ptrdiff_t>(record_index));

  // Unlink the discarded tail segments (crash artifacts past the cut).
  for (std::size_t i = live; i < scan.segments.size(); ++i) {
    const SegmentStat& seg = scan.segments[i];
    truncated_tail_bytes_ += seg.file_bytes;
    if (!file_io::remove_file(seg.path)) {
      file_io::fail(seg.path, "unlink",
                    "unlink of crash-artifact segment failed");
    }
  }
  if (live < scan.segments.size()) file_io::fsync_parent_dir(path_);

  if (segments_.empty()) {
    // Fresh journal (no segments, or a single empty segment-0 file).
    segments_.push_back(LiveSegment{0, kHeaderBytes, 0});
    fd_ = create_segment(segment_path(path_, 0));
  } else {
    const LiveSegment& tail = segments_.back();
    const std::string tail_path = segment_path(path_, tail.seq);
    fd_ = ::open(tail_path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd_ < 0) file_io::fail(tail_path, "open", "open failed");
    try {
      if (keep_cut_segment) {
        // Cut the torn/corrupt tail of the last kept segment back to
        // its longest valid prefix.
        const SegmentStat& cut = scan.segments[live - 1];
        truncated_tail_bytes_ += cut.file_bytes - cut.valid_bytes;
        if (::ftruncate(fd_, static_cast<off_t>(cut.valid_bytes)) != 0) {
          file_io::fail(tail_path, "ftruncate",
                        "truncate of torn tail failed");
        }
        if (::fsync(fd_) != 0) {
          file_io::fail(tail_path, "fsync", "fsync failed");
        }
      }
    } catch (...) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }

  std::uint64_t total = 0;
  for (const LiveSegment& seg : segments_) total += seg.bytes;
  committed_bytes_.store(total, std::memory_order_relaxed);
  segment_count_.store(segments_.size(), std::memory_order_relaxed);
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t Journal::current_segment() const {
  const util::OrderedLock lock(mutex_);
  return segments_.back().seq;
}

std::uint64_t Journal::oldest_segment() const {
  const util::OrderedLock lock(mutex_);
  return segments_.front().seq;
}

std::size_t Journal::records_from_segment(std::uint64_t seq) const {
  const util::OrderedLock lock(mutex_);
  for (const LiveSegment& seg : segments_) {
    if (seg.seq >= seq) return seg.first_record;
  }
  return records_.size();
}

void Journal::roll_segment() {
  const util::OrderedLock lock(mutex_);
  // Models kill -9 between "snapshot decided" and "fresh segment
  // exists": the journal must recover with the old segment still
  // active.
  MUSK_FAULT_HIT("segment.roll");
  const std::uint64_t next_seq = segments_.back().seq + 1;
  const int nfd = create_segment(segment_path(path_, next_seq));
  ::close(fd_);
  fd_ = nfd;
  segments_.push_back(LiveSegment{next_seq, kHeaderBytes, records_.size()});
  segment_count_.store(segments_.size(), std::memory_order_relaxed);
  committed_bytes_.fetch_add(kHeaderBytes, std::memory_order_relaxed);
  MUSK_OBS_COUNT("svc.journal.segment_rolls_total", 1);
}

std::size_t Journal::compact_below(std::uint64_t seq_bound) {
  const util::OrderedLock lock(mutex_);
  std::size_t removed = 0;
  while (segments_.size() > 1 && segments_.front().seq < seq_bound) {
    // Models kill -9 after the snapshot rename but before (or during)
    // compaction: both the snapshot and the pre-compaction segments
    // survive, and recovery must prefer the snapshot.
    MUSK_FAULT_HIT("compact.unlink");
    const LiveSegment seg = segments_.front();
    const std::string seg_file = segment_path(path_, seg.seq);
    if (!file_io::remove_file(seg_file)) {
      file_io::fail(seg_file, "unlink", "unlink of compacted segment failed");
    }
    committed_bytes_.fetch_sub(seg.bytes, std::memory_order_relaxed);
    segments_.erase(segments_.begin());
    ++removed;
  }
  if (removed > 0) {
    // The live segments' records start at the new front segment's.
    const std::size_t dropped = segments_.front().first_record;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(dropped));
    for (LiveSegment& seg : segments_) seg.first_record -= dropped;
    segment_count_.store(segments_.size(), std::memory_order_relaxed);
    // No directory fsync for the unlinks: if a crash resurrects a
    // compacted segment, the chain just regrows a contiguous prefix
    // below the snapshot bound — recovery skips it (the snapshot wins)
    // and the next checkpoint removes it again. Durability of *freeing*
    // space is not a correctness property.
    MUSK_OBS_COUNT("svc.journal.segments_compacted_total",
                   static_cast<std::uint64_t>(removed));
  }
  return removed;
}

void Journal::append_begin(int epoch, std::uint64_t pre_digest) {
  append(RecordType::kBegin, epoch, pre_digest, std::string());
}

void Journal::append_begin(int epoch, std::uint64_t pre_digest,
                           const SeqWatermarks& drained) {
  append(RecordType::kBegin, epoch, pre_digest, encode_watermarks(drained));
}

void Journal::append_outcome(int epoch, std::uint64_t pre_digest,
                             const core::Outcome& outcome) {
  std::string payload;
  core::codec::encode_outcome(outcome, payload);
  append(RecordType::kOutcome, epoch, pre_digest, payload);
}

void Journal::append_settled(int epoch, std::uint64_t post_digest) {
  append(RecordType::kSettled, epoch, post_digest, std::string());
}

void Journal::append_aborted(int epoch, std::uint64_t pre_digest) {
  append(RecordType::kAborted, epoch, pre_digest, std::string());
}

void Journal::append_degraded(int epoch, std::uint64_t pre_digest, int level,
                              const std::string& reason) {
  std::string payload;
  core::codec::put_u8(payload, static_cast<std::uint8_t>(level));
  payload += reason;
  append(RecordType::kDegraded, epoch, pre_digest, payload);
}

void Journal::append(RecordType type, int epoch, std::uint64_t digest,
                     const std::string& payload) {
  MUSK_OBS_SPAN(span, "svc.journal_append");
  span.set_detail(to_string(type));
  span.set_epoch(static_cast<std::uint64_t>(epoch));
  const util::OrderedLock lock(mutex_);
  if (poisoned_) {
    throw JournalError("journal " + path_ +
                       ": poisoned by earlier fsync failure");
  }
  if (payload.size() > kMaxRecordPayload) {
    throw JournalError("journal " + path_ + ": record payload exceeds cap");
  }
  std::string bytes = encode_record(type, epoch, digest, payload);
  const std::size_t full = bytes.size();
  MUSK_FAULT_MUTATE("journal.write", bytes);
  const bool torn = bytes.size() != full;

  const std::uint64_t seg_off = segments_.back().bytes;
  const std::string seg_file = segment_path(path_, segments_.back().seq);
  if (::lseek(fd_, static_cast<off_t>(seg_off), SEEK_SET) < 0) {
    file_io::fail(seg_file, "lseek", "seek failed");
  }
  if (MUSK_FAULT_FAIL("disk.full")) {
    // Simulated ENOSPC mid-record: half the bytes land, then the disk
    // is full. The committed prefix must be restored — a partial record
    // surviving as "data" would be a silent torn write.
    file_io::write_all(fd_, seg_file, bytes.data(), bytes.size() / 2);
    if (::ftruncate(fd_, static_cast<off_t>(seg_off)) != 0) {
      poisoned_ = true;
      throw JournalError("journal " + path_ +
                         ": write and truncate both failed; journal poisoned");
    }
    ::fsync(fd_);
    errno = ENOSPC;
    file_io::fail(seg_file, "write", "write failed");
  }
  try {
    file_io::write_all(fd_, seg_file, bytes.data(), bytes.size());
  } catch (const JournalError&) {
    // Real short write (ENOSPC, EROFS, ...): scrub the partial record
    // so the committed prefix stays the durable truth, then surface
    // the structured error. If even the scrub fails, poison the
    // journal — nothing may append after an unknown partial write.
    if (::ftruncate(fd_, static_cast<off_t>(seg_off)) != 0) poisoned_ = true;
    throw;
  }
  if (torn) {
    // A drop/truncate fault left a partial record on disk, exactly like
    // a crash mid-write; make it durable so recovery sees the torn tail.
    ::fsync(fd_);
    throw util::fault::CrashPoint("torn write in journal " + path_);
  }
  if (MUSK_FAULT_FAIL("journal.fsync") || ::fsync(fd_) != 0) {
    // The record reached the page cache but is not durable. It must not
    // resurface on replay (the service will abort this epoch), so cut
    // the file back to the committed prefix before reporting failure.
    if (::ftruncate(fd_, static_cast<off_t>(seg_off)) != 0) {
      poisoned_ = true;
      throw JournalError("journal " + path_ +
                         ": fsync and truncate both failed; journal poisoned");
    }
    throw JournalError("journal " + path_ + ": fsync failed", "fsync", EIO);
  }
  segments_.back().bytes += full;
  committed_bytes_.fetch_add(full, std::memory_order_relaxed);
  MUSK_OBS_COUNT("svc.journal.append_total", 1);
  MUSK_OBS_HISTOGRAM("svc.journal.append_seconds", span.end());
  JournalRecord record;
  record.type = type;
  record.epoch = epoch;
  record.digest = digest;
  record.payload = payload;
  records_.push_back(std::move(record));
}

RecoveryReport replay_records(Journal& journal, pcn::Network& network,
                              const pcn::RebalancePolicy& policy,
                              std::size_t first_record, RecoveryReport seed) {
  RecoveryReport report = std::move(seed);
  enum class Phase { kIdle, kBegun, kCommitted };
  Phase phase = Phase::kIdle;
  int current = 0;

  // Watermarks of committed epochs only: a BEGIN's drained seqs become
  // durable at its OUTCOME. Bids drained into a rolled-back or aborted
  // epoch had no effect, so their seqs must stay resubmittable.
  std::map<core::PlayerId, std::uint32_t> marks(report.watermarks.begin(),
                                                report.watermarks.end());
  SeqWatermarks pending_marks;
  const auto commit_marks = [&marks](const SeqWatermarks& pending) {
    for (const auto& [player, seq] : pending) {
      std::uint32_t& have = marks[player];
      have = std::max(have, seq);
    }
  };

  const auto check_digest = [&](const JournalRecord& r, const char* when) {
    const std::uint64_t have = network.state_digest();
    if (r.digest != have) {
      throw JournalError(
          "journal " + journal.path() + ": digest mismatch at epoch " +
          std::to_string(r.epoch) + " (" + when + "): journal " +
          std::to_string(r.digest) + " vs network " + std::to_string(have) +
          " — wrong genesis network for this journal?");
    }
  };

  // Iterate by index over the records present at entry: closing an
  // in-flight epoch appends to the journal below, after the scan.
  const std::size_t n = journal.records().size();
  for (std::size_t i = first_record; i < n; ++i) {
    const JournalRecord& r = journal.records()[i];
    switch (r.type) {
      case RecordType::kBegin:
        if (phase == Phase::kCommitted) {
          throw JournalError("journal " + journal.path() +
                             ": BEGIN while epoch " + std::to_string(current) +
                             " is committed but unsettled");
        }
        // A BEGIN on top of a BEGIN: the earlier epoch died before its
        // outcome committed. Its locks lived only in the dead process.
        if (phase == Phase::kBegun) ++report.rolled_back;
        check_digest(r, "begin");
        phase = Phase::kBegun;
        current = r.epoch;
        report.next_epoch = r.epoch;
        pending_marks = decode_watermarks(r.payload);
        break;
      case RecordType::kOutcome: {
        if (phase != Phase::kBegun || r.epoch != current) {
          throw JournalError("journal " + journal.path() +
                             ": OUTCOME without matching BEGIN at epoch " +
                             std::to_string(r.epoch));
        }
        check_digest(r, "outcome");
        // Extraction from the digest-verified pre-state is deterministic,
        // so the stored outcome's edge indices line up with this game.
        pcn::ExtractedGame extracted = pcn::extract_and_lock(network, policy);
        const core::Outcome outcome =
            core::codec::outcome_from_bytes(r.payload);
        pcn::apply_outcome(network, extracted, outcome);
        commit_marks(pending_marks);
        pending_marks.clear();
        phase = Phase::kCommitted;
        break;
      }
      case RecordType::kSettled:
        if (phase == Phase::kIdle || r.epoch != current) {
          throw JournalError("journal " + journal.path() +
                             ": SETTLED without matching BEGIN at epoch " +
                             std::to_string(r.epoch));
        }
        check_digest(r, "settled");
        // Empty epochs journal BEGIN -> SETTLED with no OUTCOME, yet the
        // drained seqs were still consumed — commit here too (a second
        // commit after kOutcome is a no-op: pending is already empty).
        commit_marks(pending_marks);
        pending_marks.clear();
        ++report.epochs_settled;
        phase = Phase::kIdle;
        report.next_epoch = current + 1;
        break;
      case RecordType::kDegraded:
        if (phase != Phase::kBegun || r.epoch != current) {
          throw JournalError("journal " + journal.path() +
                             ": DEGRADED without matching BEGIN at epoch " +
                             std::to_string(r.epoch));
        }
        // Annotation only: the failed attempt was rolled back before the
        // record was written, so the network still sits at the epoch's
        // pre-state. The record exists so replay can prove the degraded
        // outcome came from the documented ladder, not silent drift.
        check_digest(r, "degraded");
        ++report.degraded_epochs;
        break;
      case RecordType::kAborted:
        if (phase != Phase::kBegun || r.epoch != current) {
          throw JournalError("journal " + journal.path() +
                             ": ABORTED without matching BEGIN at epoch " +
                             std::to_string(r.epoch));
        }
        // The service released the locks before writing the record, so
        // the network is back at the pre-state; the epoch number is
        // reused by the next clear.
        check_digest(r, "aborted");
        ++report.aborted_epochs;
        pending_marks.clear();
        phase = Phase::kIdle;
        report.next_epoch = current;
        break;
    }
  }

  if (phase == Phase::kBegun) {
    // Dangling BEGIN: crash before commit. Nothing durable happened.
    ++report.rolled_back;
    report.next_epoch = current;
  } else if (phase == Phase::kCommitted) {
    // Crash between commit and settle (or mid-settle): the outcome was
    // applied exactly once above; close the epoch durably so a second
    // recovery replays SETTLED instead of re-detecting the in-flight
    // tail.
    report.applied_inflight = true;
    ++report.epochs_settled;
    journal.append_settled(current, network.state_digest());
    report.next_epoch = current + 1;
  }
  report.final_digest = network.state_digest();
  report.watermarks.assign(marks.begin(), marks.end());
  return report;
}

}  // namespace musketeer::svc
