// Versioned, length-prefixed wire protocol for the rebalancing service.
//
// Every message is one frame:
//
//     offset 0   u32  magic    "MUSK" (0x4B53554D little-endian)
//            4   u16  version  kWireVersion
//            6   u16  type     MsgType
//            8   u32  length   payload bytes (<= kMaxFramePayload)
//           12   ...  payload  (per-type record, core::codec encoding)
//
// The incremental FrameParser validates magic/version/length *before*
// buffering a payload, so a hostile "4 GiB frame" header costs 12 bytes
// of buffering, not 4 GiB; payload decoding reuses the bounds-checked
// core::codec::Reader, so truncated or oversized records throw
// core::CodecError instead of reading garbage.
//
// Conversation shape:
//   client -> server : kHello (optional; registers the player id this
//                      connection wants settlement notices for)
//   client -> server : kSubmitBid (any number, any time; carries a
//                      per-player sequence number so a resubmission
//                      after an ambiguous timeout is idempotent)
//   server -> client : kBidAck (one per kSubmitBid, echoing client_tag
//                      and seq; carries the intake IntakeStatus and the
//                      epoch counter at intake — kDuplicate means an
//                      earlier copy of this seq was already taken)
//   server -> all    : kEpochResult (broadcast after each settle)
//   server -> hello'd: kPlayerNotice (that player's price/cycles)
//   server -> all    : kShutdown (then the connection closes)
//   server -> client : kError; code kRetryAfter is load shedding (the
//                      client should back off retry_after_ms and
//                      reconnect), kGeneric is a protocol violation.
//
//   client -> server : kStatsRequest (empty payload)
//   server -> client : kStatsResponse (live ServiceStats + the obs
//                      registry snapshot as JSON; musk_stats renders it)
//
// Version history: v1 (PR 2) had no submit-bid/ack sequence numbers and
// a bare-string error payload. v2 (PR 5) added both. v3 adds the
// kStatsRequest/kStatsResponse introspection pair. v4 adds the solve
// concurrency and component-shape fields to kStatsResponse. v5 adds the
// overload-health fields (shed level, clear-time EWMA, degradation
// counters, shed-intake counter) to kStatsResponse and the
// kRejectedOverload intake status. v6 adds the checkpoint-health fields
// (snapshot age, epochs since snapshot, snapshots taken, journal
// segment count) to kStatsResponse. v7 drops the force-cancel counter
// from kStatsResponse's degradation counters. Versions are not
// cross-compatible; both sides reject mismatched versions at the frame
// header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/io.hpp"
#include "svc/service.hpp"

namespace musketeer::svc {

inline constexpr std::uint32_t kWireMagic = 0x4B53554D;  // "MUSK"
inline constexpr std::uint16_t kWireVersion = 7;
inline constexpr std::size_t kFrameHeaderBytes = 12;
inline constexpr std::size_t kMaxFramePayload = 1u << 20;  // 1 MiB

enum class MsgType : std::uint16_t {
  kHello = 1,
  kSubmitBid = 2,
  kBidAck = 3,
  kEpochResult = 4,
  kPlayerNotice = 5,
  kShutdown = 6,
  kError = 7,
  kStatsRequest = 8,
  kStatsResponse = 9,
};

/// Thrown on malformed framing (bad magic/version/type, oversized
/// length). Payload-level decode errors surface as core::CodecError.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Appends one complete frame to `out`.
void append_frame(std::string& out, MsgType type, std::string_view payload);

/// Incremental frame decoder over a byte stream (one per connection).
/// feed() buffers bytes; next() yields complete frames in order and
/// throws WireError on a malformed header — after which the stream is
/// unusable and the connection should be dropped.
class FrameParser {
 public:
  void feed(const char* data, std::size_t n);
  std::optional<Frame> next();

  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// --- Message payloads --------------------------------------------------

struct HelloMsg {
  core::PlayerId player = 0;
};

struct BidAckMsg {
  std::uint64_t client_tag = 0;
  IntakeStatus status = IntakeStatus::kRejectedInvalid;
  /// Service epoch counter at intake: an accepted bid is applied to the
  /// first epoch cleared after this.
  std::uint32_t intake_epoch = 0;
  /// Echo of the submission's sequence number (0 = unsequenced).
  std::uint32_t seq = 0;
};

struct EpochResultMsg {
  std::uint32_t epoch = 0;
  std::uint64_t bids_applied = 0;
  std::uint32_t game_edges = 0;
  std::uint32_t cycles_executed = 0;
  std::int64_t rebalanced_volume = 0;
  double fees_paid = 0.0;
  double clear_seconds = 0.0;
  /// Settled-state digest (pcn::Network::state_digest()).
  std::uint64_t network_digest = 0;
};

struct PlayerNoticeMsg {
  std::uint32_t epoch = 0;
  PlayerNotice notice;
};

enum class ErrorCode : std::uint16_t {
  /// Protocol violation or server-side failure; the connection closes.
  kGeneric = 0,
  /// Load shedding: the server is degraded, not broken. The client
  /// should wait retry_after_ms, then reconnect and resubmit.
  kRetryAfter = 1,
};

struct ErrorMsg {
  ErrorCode code = ErrorCode::kGeneric;
  /// kRetryAfter only: suggested client backoff in milliseconds.
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

std::string encode_hello(const HelloMsg& msg);
HelloMsg decode_hello(std::string_view payload);

std::string encode_submit_bid(const BidSubmission& bid);
BidSubmission decode_submit_bid(std::string_view payload);

std::string encode_bid_ack(const BidAckMsg& msg);
BidAckMsg decode_bid_ack(std::string_view payload);

std::string encode_epoch_result(const EpochReport& report);
EpochResultMsg decode_epoch_result(std::string_view payload);

std::string encode_player_notice(std::uint32_t epoch,
                                 const PlayerNotice& notice);
PlayerNoticeMsg decode_player_notice(std::string_view payload);

std::string encode_error(const ErrorMsg& msg);
/// Convenience: a kGeneric error with just a message.
std::string encode_error(std::string_view message);
ErrorMsg decode_error(std::string_view payload);

/// kStatsResponse payload: the service's ServiceStats plus the obs
/// registry snapshot (Registry::to_json() bytes, opaque to the wire
/// layer). kStatsRequest has an empty payload. On the wire the int
/// fields travel as u32 and the size_t fields as u64, in the order
/// encode_stats_response writes them.
struct StatsResponseMsg {
  ServiceStats service;
  std::string registry_json;
};

std::string encode_stats_response(const StatsResponseMsg& msg);
StatsResponseMsg decode_stats_response(std::string_view payload);

}  // namespace musketeer::svc
