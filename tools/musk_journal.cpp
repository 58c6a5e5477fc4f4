// musk_journal — offline inspection, verification, and compaction of a
// musketeerd journal (rotated segments + snapshots), reusing the
// daemon's own readers so the tool and the daemon can never disagree
// about what is valid.
//
//   musk_journal inspect <journal-base>   show segments, snapshots,
//                                         record totals
//   musk_journal verify  <journal-base>   exit 2 on any corruption
//   musk_journal compact <journal-base>   offline compaction: unlink
//                                         every segment the newest valid
//                                         snapshot makes redundant
//
// `verify` treats a torn segment tail, a corrupt record, an unreadable
// segment, a segment-chain gap, or an invalid snapshot file as
// corruption (exit 2).
//
// `compact` opens the journal read-write exactly like the daemon does —
// repairing any torn tail first — then applies the same compaction
// bound the online checkpointer uses (SnapshotStore::
// oldest_retained_first_segment), so it never removes history a
// recovery might still need.
//
// Exit status: 0 on success, 1 on usage errors, 2 on corruption
// (verify) or runtime errors.
#include <cstdio>
#include <string>

#include "svc/journal.hpp"
#include "svc/snapshot.hpp"
#include "util/table.hpp"

using namespace musketeer;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: musk_journal inspect|verify|compact <journal-base>\n");
  return 1;
}

/// Snapshot files on disk with their validation result (diagnostic kept
/// for printing; validation itself is SnapshotStore::read_file, the
/// same check recovery applies).
struct SnapshotInfo {
  std::uint64_t seq = 0;
  std::string path;
  bool valid = false;
  std::string error;
  svc::SnapshotData data;
};

std::vector<SnapshotInfo> scan_snapshots(const std::string& base) {
  std::vector<SnapshotInfo> out;
  for (const std::uint64_t seq : svc::list_snapshots(base)) {
    SnapshotInfo info;
    info.seq = seq;
    info.path = svc::snapshot_path(base, seq);
    info.valid = svc::SnapshotStore::read_file(info.path, &info.data,
                                               &info.error);
    out.push_back(std::move(info));
  }
  return out;
}

int cmd_inspect(const std::string& base) {
  const svc::JournalScan scan = svc::scan_journal(base);
  const std::vector<SnapshotInfo> snaps = scan_snapshots(base);
  if (scan.segments.empty() && snaps.empty()) {
    std::fprintf(stderr, "musk_journal: no journal at %s\n", base.c_str());
    return 2;
  }

  std::printf("journal %s\n", base.c_str());
  util::Table segments({"segment", "bytes", "valid", "records", "state"});
  for (const svc::SegmentStat& seg : scan.segments) {
    segments.add_row({std::to_string(seg.seq),
                      std::to_string(seg.file_bytes),
                      std::to_string(seg.valid_bytes),
                      std::to_string(seg.records),
                      seg.read_error  ? "unreadable"
                      : seg.clean     ? "clean"
                      : seg.header_ok ? "torn tail"
                                      : "bad header"});
  }
  segments.print();

  std::size_t per_type[6] = {};
  for (const svc::JournalRecord& r : scan.records) {
    ++per_type[static_cast<std::size_t>(r.type) < 6
                   ? static_cast<std::size_t>(r.type)
                   : 0];
  }
  std::printf("\nrecords: %zu total", scan.records.size());
  for (int t = 1; t <= 5; ++t) {
    std::printf(", %zu %s", per_type[t],
                svc::to_string(static_cast<svc::RecordType>(t)));
  }
  std::printf("\nchain: %s%s%s\n", scan.clean ? "clean" : "DAMAGED",
              scan.note.empty() ? "" : " — ", scan.note.c_str());

  if (snaps.empty()) {
    std::printf("\nsnapshots: none\n");
  } else {
    std::printf("\n");
    util::Table table({"snapshot", "epoch", "tail segment", "state"});
    for (const SnapshotInfo& snap : snaps) {
      table.add_row({std::to_string(snap.seq),
                     snap.valid ? std::to_string(snap.data.next_epoch) : "-",
                     snap.valid ? std::to_string(snap.data.first_segment)
                                : "-",
                     snap.valid ? "valid" : "INVALID: " + snap.error});
    }
    table.print();
  }
  return 0;
}

int cmd_verify(const std::string& base) {
  const svc::JournalScan scan = svc::scan_journal(base);
  const std::vector<SnapshotInfo> snaps = scan_snapshots(base);
  if (scan.segments.empty() && snaps.empty()) {
    std::fprintf(stderr, "musk_journal: no journal at %s\n", base.c_str());
    return 2;
  }

  bool corrupt = false;
  if (!scan.clean) {
    std::fprintf(stderr, "musk_journal: %s: %s\n", base.c_str(),
                 scan.note.empty() ? "journal chain damaged"
                                   : scan.note.c_str());
    corrupt = true;
  }
  for (const SnapshotInfo& snap : snaps) {
    if (!snap.valid) {
      std::fprintf(stderr, "musk_journal: %s: invalid snapshot: %s\n",
                   snap.path.c_str(), snap.error.c_str());
      corrupt = true;
    }
  }
  if (corrupt) return 2;
  std::printf("musk_journal: %s: ok — %zu segment(s), %zu record(s), "
              "%zu snapshot(s)\n",
              base.c_str(), scan.segments.size(), scan.records.size(),
              snaps.size());
  return 0;
}

int cmd_compact(const std::string& base) {
  if (svc::list_segments(base).empty()) {
    std::fprintf(stderr, "musk_journal: no journal at %s\n", base.c_str());
    return 2;
  }
  // Open read-write exactly like the daemon: repairs a torn tail, then
  // compacts below the same bound the online checkpointer uses.
  svc::Journal journal(base);
  const svc::SnapshotStore snapshots(base);
  const std::uint64_t bound = snapshots.oldest_retained_first_segment();
  const std::size_t removed = journal.compact_below(bound);
  std::printf("musk_journal: %s: removed %zu segment(s) below %llu; "
              "%llu live segment(s), %llu byte(s)\n",
              base.c_str(), removed,
              static_cast<unsigned long long>(bound),
              static_cast<unsigned long long>(journal.segment_count()),
              static_cast<unsigned long long>(journal.committed_bytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string cmd = argv[1];
  const std::string base = argv[2];
  try {
    if (cmd == "inspect") return cmd_inspect(base);
    if (cmd == "verify") return cmd_verify(base);
    if (cmd == "compact") return cmd_compact(base);
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "musk_journal: error: %s\n", error.what());
    return 2;
  }
}
