// Serialization of rebalancing games and outcomes.
//
// Two formats:
//
// 1. A small, diff-friendly line format so games can be stored in files,
//    shared in bug reports, and fed to the CLI:
//
//        musketeer-game v1
//        players <n>
//        edge <from> <to> <capacity> <tail_valuation> <head_valuation>
//        ...
//
//    '#' starts a comment; blank lines are ignored. Parsing throws
//    std::runtime_error with a line number on malformed input.
//
// 2. A bounds-checked little-endian binary codec (namespace `codec`):
//    the primitives and `Reader` that the wire protocol, the journal and
//    the snapshots in src/svc/ build their records from, plus the
//    outcome record the journal stores in each OUTCOME. Every decoder
//    reads through `codec::Reader`, which throws `CodecError` on
//    truncation, and every element count is validated against the bytes
//    actually remaining, so an adversarial "4 billion cycles" header is
//    rejected instead of allocated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/game.hpp"
#include "core/outcome.hpp"

namespace musketeer::core {

/// Serializes the game to the v1 text format.
std::string to_text(const Game& game);

/// Parses the v1 text format.
Game game_from_text(const std::string& text);

/// Convenience file wrappers (throw std::runtime_error on I/O failure).
Game load_game(const std::string& path);
void save_game(const Game& game, const std::string& path);

/// Renders an outcome as a human-readable report (cycles, prices,
/// per-player utilities, property checks) — shared by the CLI and
/// examples.
std::string describe_outcome(const Game& game, const Outcome& outcome);

/// Thrown by the binary decoders on truncated, oversized, or
/// range-violating input. Derives from std::runtime_error so generic
/// "reject the message" paths need no special case.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace codec {

/// Append-only little-endian primitives over a byte buffer.
void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);
void put_f64(std::string& out, double v);

/// Bounds-checked sequential reader over an immutable byte range. The
/// underlying bytes must outlive the reader. Every accessor throws
/// CodecError instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  /// A view of the next `n` bytes (into the reader's underlying bytes).
  std::string_view bytes(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

  /// Throws CodecError unless every byte has been consumed — decoders
  /// call this last so trailing garbage is rejected, not ignored.
  void expect_end() const;

  /// Validates an element count read from the wire: the remaining bytes
  /// must be able to hold `count` records of at least `min_record_bytes`
  /// each. Returns the count narrowed to size_t.
  std::size_t check_count(std::uint64_t count, std::size_t min_record_bytes);

 private:
  [[noreturn]] void fail(const char* what) const;
  const unsigned char* take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Binary record format version (bumped on any layout change; decoders
/// reject versions they do not understand).
inline constexpr std::uint16_t kBinaryVersion = 1;

/// Outcome <-> bytes. Decoding is structural (version, counts, signs,
/// finiteness); the economic invariants of a decoded outcome are the
/// auditor's job.
void encode_outcome(const Outcome& outcome, std::string& out);
Outcome decode_outcome(Reader& in);

/// Decodes exactly one outcome record and requires the buffer to be
/// fully consumed.
Outcome outcome_from_bytes(std::string_view bytes);

}  // namespace codec

}  // namespace musketeer::core
