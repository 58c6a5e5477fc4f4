#include "svc/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "core/io.hpp"
#include "obs/obs.hpp"
#include "svc/file_io.hpp"
#include "util/fault.hpp"

namespace musketeer::svc {

namespace {

using file_io::fnv1a;
using file_io::load_u64;

constexpr char kSnapHeader[] = "MUSKSNP1";
constexpr std::size_t kSnapHeaderBytes = 8;
constexpr std::size_t kChecksumBytes = 8;
// Fixed body prefix: next_epoch + digest + first_segment + shed_level +
// ewma + watermark count (the variable parts follow).
constexpr std::size_t kMinBodyBytes = 4 + 8 + 8 + 4 + 8 + 4 + 8;
// Bytes per encoded channel in encode_network.
constexpr std::size_t kChannelBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1;

std::string encode_snapshot(const SnapshotData& data) {
  std::string out(kSnapHeader, kSnapHeaderBytes);
  std::string body;
  core::codec::put_u32(body, static_cast<std::uint32_t>(data.next_epoch));
  core::codec::put_u64(body, data.digest);
  core::codec::put_u64(body, data.first_segment);
  core::codec::put_u32(body, static_cast<std::uint32_t>(data.shed_level));
  core::codec::put_f64(body, data.ewma_seconds);
  core::codec::put_u32(body,
                       static_cast<std::uint32_t>(data.watermarks.size()));
  for (const auto& [player, seq] : data.watermarks) {
    core::codec::put_u32(body, static_cast<std::uint32_t>(player));
    core::codec::put_u32(body, seq);
  }
  core::codec::put_u64(body, data.network_bytes.size());
  body += data.network_bytes;
  out += body;
  core::codec::put_u64(out, fnv1a(body.data(), body.size()));
  return out;
}

}  // namespace

std::string encode_network(const pcn::Network& network) {
  std::string out;
  const auto num_channels = network.num_channels();
  out.reserve(8 + static_cast<std::size_t>(num_channels) * kChannelBytes);
  core::codec::put_u32(out, static_cast<std::uint32_t>(network.num_nodes()));
  core::codec::put_u32(out, static_cast<std::uint32_t>(num_channels));
  for (pcn::ChannelId c = 0; c < num_channels; ++c) {
    const pcn::Channel& ch = network.channel(c);
    core::codec::put_u32(out, static_cast<std::uint32_t>(ch.a));
    core::codec::put_u32(out, static_cast<std::uint32_t>(ch.b));
    core::codec::put_i64(out, ch.balance_a);
    core::codec::put_i64(out, ch.balance_b);
    core::codec::put_f64(out, ch.fee_rate_a);
    core::codec::put_f64(out, ch.fee_rate_b);
    core::codec::put_i64(out, ch.locked_a);
    core::codec::put_i64(out, ch.locked_b);
    core::codec::put_u8(out, ch.disabled ? 1 : 0);
  }
  return out;
}

pcn::Network decode_network(std::string_view bytes) {
  core::codec::Reader in(bytes);
  const auto num_nodes = static_cast<std::int64_t>(in.u32());
  const std::size_t num_channels = in.check_count(in.u32(), kChannelBytes);
  // Every field is range-validated before it reaches the Network
  // mutators: corrupt bytes must surface as CodecError, not as an
  // assertion abort inside add_channel.
  const auto fail = [](const char* what) {
    throw core::CodecError(std::string("snapshot network: ") + what);
  };
  pcn::Network network(static_cast<pcn::NodeId>(num_nodes));
  for (std::size_t c = 0; c < num_channels; ++c) {
    const auto a = static_cast<std::int64_t>(in.u32());
    const auto b = static_cast<std::int64_t>(in.u32());
    const std::int64_t balance_a = in.i64();
    const std::int64_t balance_b = in.i64();
    const double fee_rate_a = in.f64();
    const double fee_rate_b = in.f64();
    const std::int64_t locked_a = in.i64();
    const std::int64_t locked_b = in.i64();
    const std::uint8_t disabled = in.u8();
    if (a >= num_nodes || b >= num_nodes || a == b) {
      fail("channel endpoint out of range");
    }
    if (balance_a < 0 || balance_b < 0) fail("negative balance");
    if (locked_a < 0 || locked_a > balance_a || locked_b < 0 ||
        locked_b > balance_b) {
      fail("locked amount out of range");
    }
    if (!std::isfinite(fee_rate_a) || !std::isfinite(fee_rate_b) ||
        fee_rate_a < 0.0 || fee_rate_b < 0.0) {
      fail("bad fee rate");
    }
    if (disabled > 1) fail("bad disabled flag");
    const pcn::ChannelId id = network.add_channel(
        static_cast<pcn::NodeId>(a), static_cast<pcn::NodeId>(b), balance_a,
        balance_b, fee_rate_a, fee_rate_b);
    pcn::Channel& ch = network.channel(id);
    ch.locked_a = locked_a;
    ch.locked_b = locked_b;
    ch.disabled = disabled != 0;
  }
  in.expect_end();
  return network;
}

std::string snapshot_path(const std::string& base_path, std::uint64_t seq) {
  return file_io::numbered_path(base_path, ".snap.", seq, "");
}

std::vector<std::uint64_t> list_snapshots(const std::string& base_path) {
  return file_io::list_numbered(base_path, ".snap.", "");
}

bool SnapshotStore::read_file(const std::string& file_path, SnapshotData* out,
                              std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string buf;
  try {
    buf = file_io::read_file(file_path);
  } catch (const JournalError& e) {
    return fail(e.what());
  }
  if (buf.size() < kSnapHeaderBytes + kMinBodyBytes + kChecksumBytes) {
    return fail("truncated snapshot");
  }
  if (std::memcmp(buf.data(), kSnapHeader, kSnapHeaderBytes) != 0) {
    return fail("bad snapshot header");
  }
  const char* body = buf.data() + kSnapHeaderBytes;
  const std::size_t body_len =
      buf.size() - kSnapHeaderBytes - kChecksumBytes;
  if (fnv1a(body, body_len) != load_u64(body + body_len)) {
    return fail("snapshot checksum mismatch");
  }

  SnapshotData data;
  try {
    core::codec::Reader in(std::string_view(body, body_len));
    data.next_epoch = static_cast<int>(in.u32());
    data.digest = in.u64();
    data.first_segment = in.u64();
    data.shed_level = static_cast<int>(in.u32());
    data.ewma_seconds = in.f64();
    const std::size_t marks = in.check_count(in.u32(), 8);
    data.watermarks.reserve(marks);
    for (std::size_t i = 0; i < marks; ++i) {
      const auto player = static_cast<core::PlayerId>(in.u32());
      const std::uint32_t seq = in.u32();
      data.watermarks.emplace_back(player, seq);
    }
    const std::uint64_t net_len = in.u64();
    if (net_len != in.remaining()) {
      return fail("snapshot network length mismatch");
    }
    data.network_bytes.assign(body + body_len - in.remaining(),
                              in.remaining());
    // End-to-end validation: the network must decode *and* hash to the
    // digest stored beside it. A checksum-intact snapshot whose state
    // drifted (software bug, partial overwrite missed by FNV) is
    // rejected exactly like a torn one.
    const pcn::Network network = decode_network(data.network_bytes);
    if (network.state_digest() != data.digest) {
      return fail("snapshot digest mismatch");
    }
    if (!std::isfinite(data.ewma_seconds) || data.ewma_seconds < 0.0) {
      return fail("bad ewma");
    }
    if (data.next_epoch < 0 || data.shed_level < 0) {
      return fail("bad counters");
    }
  } catch (const core::CodecError& e) {
    return fail(e.what());
  }
  if (out != nullptr) *out = std::move(data);
  if (error != nullptr) error->clear();
  return true;
}

SnapshotStore::SnapshotStore(std::string base_path, int keep)
    : path_(std::move(base_path)), keep_(std::max(1, keep)) {
  for (const std::uint64_t seq : list_snapshots(path_)) {
    Entry entry;
    entry.seq = seq;
    entry.path = snapshot_path(path_, seq);
    SnapshotData data;
    entry.valid = read_file(entry.path, &data, nullptr);
    if (entry.valid) {
      entry.first_segment = data.first_segment;
      entry.next_epoch = data.next_epoch;
    }
    entries_.push_back(std::move(entry));
  }
}

void SnapshotStore::write(const SnapshotData& data) {
  MUSK_OBS_SPAN(span, "svc.snapshot_write");
  span.set_epoch(static_cast<std::uint64_t>(data.next_epoch));
  const std::uint64_t seq = entries_.empty() ? 0 : entries_.back().seq + 1;
  const std::string dest = snapshot_path(path_, seq);
  const std::string tmp = path_ + ".snap.tmp";

  std::string bytes = encode_snapshot(data);
  const std::uint64_t pristine = fnv1a(bytes.data(), bytes.size());
  const std::size_t pristine_size = bytes.size();
  MUSK_FAULT_MUTATE("snapshot.write", bytes);
  // A mutation fault models bits rotting on the way to disk: the
  // corrupt snapshot is *published* (the writer cannot tell) and the
  // process then dies — recovery must detect it and fall back.
  const bool mutated = bytes.size() != pristine_size ||
                       fnv1a(bytes.data(), bytes.size()) != pristine;

  if (MUSK_FAULT_FAIL("disk.full")) {
    // Simulated ENOSPC mid-snapshot: a partial tmp file exists, then
    // the write errors out. The tmp is scrubbed and the error surfaces
    // structurally; the previous snapshots and the journal are never
    // touched.
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
      file_io::write_all(fd, tmp, bytes.data(), bytes.size() / 2);
      ::close(fd);
    }
    file_io::remove_file(tmp);
    errno = ENOSPC;
    file_io::fail(dest, "write", "write failed");
  }

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) file_io::fail(tmp, "open", "open failed");
  try {
    file_io::write_all(fd, tmp, bytes.data(), bytes.size());
    if (::fsync(fd) != 0) file_io::fail(tmp, "fsync", "fsync failed");
  } catch (...) {
    ::close(fd);
    file_io::remove_file(tmp);
    throw;
  }
  ::close(fd);
  // Crash here leaves only an orphaned tmp the next write overwrites.
  MUSK_FAULT_HIT("snapshot.rename");
  if (::rename(tmp.c_str(), dest.c_str()) != 0) {
    const int saved = errno;
    file_io::remove_file(tmp);
    errno = saved;
    file_io::fail(dest, "rename", "rename failed");
  }
  file_io::fsync_parent_dir(dest);
  if (mutated) {
    // Die before pruning anything: the corrupt snapshot is on disk and
    // the older, still-valid ones must survive for recovery to find.
    throw util::fault::CrashPoint("corrupt snapshot published at " + dest);
  }

  Entry entry;
  entry.seq = seq;
  entry.path = dest;
  entry.valid = true;
  entry.first_segment = data.first_segment;
  entry.next_epoch = data.next_epoch;
  entries_.push_back(std::move(entry));

  // Prune beyond the retention bound, oldest first. The newest
  // snapshot is durable, so losing the old ones costs only fallback
  // depth.
  while (entries_.size() > static_cast<std::size_t>(keep_)) {
    if (!file_io::remove_file(entries_.front().path)) {
      file_io::fail(entries_.front().path, "unlink", "unlink failed");
    }
    entries_.erase(entries_.begin());
  }
  MUSK_OBS_COUNT("svc.snapshot.total", 1);
  MUSK_OBS_HISTOGRAM("svc.snapshot.write_seconds", span.end());
}

std::uint64_t SnapshotStore::oldest_retained_first_segment() const {
  if (entries_.empty()) return 0;
  std::uint64_t oldest = UINT64_MAX;
  for (const Entry& entry : entries_) {
    // An invalid snapshot pins segment 0: its reader will fall back to
    // an older snapshot or genesis, which needs the longer tail.
    oldest = std::min(oldest, entry.valid ? entry.first_segment : 0);
  }
  return oldest;
}

RecoveryReport recover(Journal& journal, const SnapshotStore& snapshots,
                       pcn::Network& network,
                       const pcn::RebalancePolicy& policy) {
  int discarded = 0;
  const auto& entries = snapshots.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    SnapshotData data;
    std::string error;
    if (!it->valid || !SnapshotStore::read_file(it->path, &data, &error)) {
      ++discarded;
      continue;
    }
    network = decode_network(data.network_bytes);
    RecoveryReport seed;
    seed.from_snapshot = true;
    seed.snapshot_epoch = data.next_epoch;
    seed.snapshots_discarded = discarded;
    seed.next_epoch = data.next_epoch;
    seed.watermarks = data.watermarks;
    seed.ewma_seconds = data.ewma_seconds;
    seed.shed_level = data.shed_level;
    const std::uint64_t tail_start =
        std::max(journal.oldest_segment(), data.first_segment);
    seed.segments_replayed =
        static_cast<int>(journal.current_segment() - tail_start + 1);
    const std::size_t first = journal.records_from_segment(data.first_segment);
    return replay_records(journal, network, policy, first, seed);
  }

  // No usable snapshot: genesis replay, which needs the full history.
  if (journal.oldest_segment() != 0) {
    throw JournalError(
        "journal " + journal.path() + ": no valid snapshot and segments "
        "before " + std::to_string(journal.oldest_segment()) +
        " were compacted away — recovery is impossible");
  }
  RecoveryReport seed;
  seed.snapshots_discarded = discarded;
  RecoveryReport report =
      replay_records(journal, network, policy, 0, std::move(seed));
  report.segments_replayed = static_cast<int>(journal.segment_count());
  return report;
}

}  // namespace musketeer::svc
