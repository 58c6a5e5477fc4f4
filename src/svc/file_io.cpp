#include "svc/file_io.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "svc/journal.hpp"

namespace musketeer::svc::file_io {

namespace {

std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string base_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string format_seq(std::uint64_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%06llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

}  // namespace

std::uint64_t fnv1a(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void fail(const std::string& path, const char* op, const char* what) {
  const int saved = errno;
  throw JournalError(path + ": " + what + ": " + std::strerror(saved), op,
                     saved);
}

void write_all(int fd, const std::string& path, const char* data,
               std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      fail(path, "write", "write failed");
    }
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

void fsync_parent_dir(const std::string& path) {
  const int fd =
      ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "open", "open failed");
  std::string buf;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      fail(path, "read", "read failed");
    }
    if (got == 0) break;
    buf.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return buf;
}

bool remove_file(const std::string& path) {
  return ::unlink(path.c_str()) == 0 || errno == ENOENT;
}

std::string numbered_path(const std::string& base, const char* infix,
                          std::uint64_t seq, const char* suffix) {
  return base + infix + format_seq(seq) + suffix;
}

std::vector<std::uint64_t> list_numbered(const std::string& base,
                                         const char* infix,
                                         const char* suffix) {
  std::vector<std::uint64_t> seqs;
  const std::string prefix = base_of(base) + infix;
  const std::string_view tail = suffix;
  DIR* d = ::opendir(dir_of(base).c_str());
  if (d == nullptr) return seqs;
  while (const dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.size() <= prefix.size() + tail.size() ||
        !name.starts_with(prefix) || !name.ends_with(tail)) {
      continue;
    }
    const std::string_view digits = name.substr(
        prefix.size(), name.size() - prefix.size() - tail.size());
    bool numeric = true;
    std::uint64_t seq = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    // Exactly the names numbered_path writes: the padding it adds and
    // no more, and no seq that wrapped past 2^64 while parsing.
    if (numeric && digits == format_seq(seq)) seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

}  // namespace musketeer::svc::file_io
