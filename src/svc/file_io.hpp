// Private file layer of the journal and the snapshot store: the
// checksum both formats end their records with, errno-carrying I/O
// failures, whole-file reads, and the numbered-file naming scheme
// `<base><infix><seq><suffix>` that segments and snapshots share.
// Failures throw svc::JournalError{op, errno}, the error both stores
// surface to their callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace musketeer::svc::file_io {

/// 64-bit FNV-1a over `n` bytes.
std::uint64_t fnv1a(const char* data, std::size_t n);
/// Unaligned u64 load, the inverse of core::codec::put_u64.
std::uint64_t load_u64(const char* p);

/// Throws JournalError("<path>: <what>: <strerror(errno)>", op, errno).
[[noreturn]] void fail(const std::string& path, const char* op,
                       const char* what);

/// Writes all `n` bytes, retrying short writes and EINTR.
void write_all(int fd, const std::string& path, const char* data,
               std::size_t n);

/// Makes creates, renames and unlinks in `path`'s directory durable.
/// Best-effort: a directory that cannot be opened (exotic FS) degrades
/// to POSIX-default behaviour, it does not fail the operation.
void fsync_parent_dir(const std::string& path);

/// The whole file. Throws JournalError with op "open" or "read".
std::string read_file(const std::string& path);

/// Unlinks `path`, counting an already-missing file as removed. Returns
/// false, with errno set, on any other failure.
bool remove_file(const std::string& path);

/// `<base><infix><seq><suffix>`, the seq zero-padded to at least 6
/// digits.
std::string numbered_path(const std::string& base, const char* infix,
                          std::uint64_t seq, const char* suffix);
/// The seqs of every file numbered_path(base, infix, seq, suffix) names
/// in base's directory, ascending. Read-only.
std::vector<std::uint64_t> list_numbered(const std::string& base,
                                         const char* infix,
                                         const char* suffix);

}  // namespace musketeer::svc::file_io
