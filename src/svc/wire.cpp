#include "svc/wire.hpp"

#include <cmath>

namespace musketeer::svc {

using core::codec::put_f64;
using core::codec::put_i64;
using core::codec::put_u16;
using core::codec::put_u32;
using core::codec::put_u64;
using core::codec::put_u8;
using core::codec::Reader;

namespace {

bool known_type(std::uint16_t type) {
  return type >= static_cast<std::uint16_t>(MsgType::kHello) &&
         type <= static_cast<std::uint16_t>(MsgType::kStatsResponse);
}

/// Reads through the whole payload or throws (CodecError on truncation
/// via Reader, WireError on trailing garbage for uniform reporting).
Reader payload_reader(std::string_view payload) { return Reader(payload); }

void expect_consumed(const Reader& in, const char* what) {
  if (!in.done()) {
    throw WireError(std::string("trailing bytes in ") + what + " payload");
  }
}

}  // namespace

void append_frame(std::string& out, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("frame payload exceeds kMaxFramePayload");
  }
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<std::uint16_t>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
}

void FrameParser::feed(const char* data, std::size_t n) {
  buffer_.append(data, n);
}

std::optional<Frame> FrameParser::next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::nullopt;
  Reader header(std::string_view(buffer_).substr(0, kFrameHeaderBytes));
  const std::uint32_t magic = header.u32();
  if (magic != kWireMagic) throw WireError("bad frame magic");
  const std::uint16_t version = header.u16();
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  const std::uint16_t type = header.u16();
  if (!known_type(type)) {
    throw WireError("unknown message type " + std::to_string(type));
  }
  const std::uint32_t length = header.u32();
  if (length > kMaxFramePayload) {
    throw WireError("frame payload length " + std::to_string(length) +
                    " exceeds limit");
  }
  if (buffer_.size() < kFrameHeaderBytes + length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload = buffer_.substr(kFrameHeaderBytes, length);
  buffer_.erase(0, kFrameHeaderBytes + length);
  return frame;
}

std::string encode_hello(const HelloMsg& msg) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(msg.player));
  return out;
}

HelloMsg decode_hello(std::string_view payload) {
  Reader in = payload_reader(payload);
  HelloMsg msg;
  msg.player = static_cast<core::PlayerId>(in.u32());
  expect_consumed(in, "hello");
  return msg;
}

std::string encode_submit_bid(const BidSubmission& bid) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(bid.player));
  std::uint8_t flags = 0;
  if (bid.has_tail) flags |= 1;
  if (bid.has_head) flags |= 2;
  put_u8(out, flags);
  put_f64(out, bid.tail_bid);
  put_f64(out, bid.head_bid);
  put_u64(out, bid.client_tag);
  put_u32(out, bid.seq);
  return out;
}

BidSubmission decode_submit_bid(std::string_view payload) {
  Reader in = payload_reader(payload);
  BidSubmission bid;
  bid.player = static_cast<core::PlayerId>(in.u32());
  const std::uint8_t flags = in.u8();
  if ((flags & ~0x3u) != 0) throw WireError("unknown submit-bid flags");
  bid.has_tail = (flags & 1) != 0;
  bid.has_head = (flags & 2) != 0;
  bid.tail_bid = in.f64();
  bid.head_bid = in.f64();
  bid.client_tag = in.u64();
  bid.seq = in.u32();
  expect_consumed(in, "submit-bid");
  // Semantic validation (bounds, finiteness) happens at the BidQueue
  // door so wire decoding and intake report through one channel.
  return bid;
}

std::string encode_bid_ack(const BidAckMsg& msg) {
  std::string out;
  put_u64(out, msg.client_tag);
  put_u8(out, static_cast<std::uint8_t>(msg.status));
  put_u32(out, msg.intake_epoch);
  put_u32(out, msg.seq);
  return out;
}

BidAckMsg decode_bid_ack(std::string_view payload) {
  Reader in = payload_reader(payload);
  BidAckMsg msg;
  msg.client_tag = in.u64();
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(IntakeStatus::kRejectedOverload)) {
    throw WireError("unknown intake status in ack");
  }
  msg.status = static_cast<IntakeStatus>(status);
  msg.intake_epoch = in.u32();
  msg.seq = in.u32();
  expect_consumed(in, "bid-ack");
  return msg;
}

std::string encode_epoch_result(const EpochReport& report) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(report.epoch));
  put_u64(out, report.bids_applied);
  put_u32(out, static_cast<std::uint32_t>(report.game_edges));
  put_u32(out, static_cast<std::uint32_t>(report.cycles_executed));
  put_i64(out, report.rebalanced_volume);
  put_f64(out, report.fees_paid);
  put_f64(out, report.clear_seconds);
  put_u64(out, report.network_digest);
  return out;
}

EpochResultMsg decode_epoch_result(std::string_view payload) {
  Reader in = payload_reader(payload);
  EpochResultMsg msg;
  msg.epoch = in.u32();
  msg.bids_applied = in.u64();
  msg.game_edges = in.u32();
  msg.cycles_executed = in.u32();
  msg.rebalanced_volume = in.i64();
  msg.fees_paid = in.f64();
  msg.clear_seconds = in.f64();
  msg.network_digest = in.u64();
  if (!std::isfinite(msg.fees_paid) || !std::isfinite(msg.clear_seconds)) {
    throw WireError("non-finite epoch-result field");
  }
  expect_consumed(in, "epoch-result");
  return msg;
}

std::string encode_player_notice(std::uint32_t epoch,
                                 const PlayerNotice& notice) {
  std::string out;
  put_u32(out, epoch);
  put_u32(out, static_cast<std::uint32_t>(notice.player));
  put_f64(out, notice.price);
  put_u32(out, static_cast<std::uint32_t>(notice.cycles));
  put_i64(out, notice.volume);
  put_f64(out, notice.delay_bonus);
  return out;
}

PlayerNoticeMsg decode_player_notice(std::string_view payload) {
  Reader in = payload_reader(payload);
  PlayerNoticeMsg msg;
  msg.epoch = in.u32();
  msg.notice.player = static_cast<core::PlayerId>(in.u32());
  msg.notice.price = in.f64();
  msg.notice.cycles = static_cast<int>(in.u32());
  msg.notice.volume = in.i64();
  msg.notice.delay_bonus = in.f64();
  if (!std::isfinite(msg.notice.price) ||
      !std::isfinite(msg.notice.delay_bonus)) {
    throw WireError("non-finite player-notice field");
  }
  expect_consumed(in, "player-notice");
  return msg;
}

std::string encode_error(const ErrorMsg& msg) {
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(msg.code));
  put_u32(out, msg.retry_after_ms);
  put_u32(out, static_cast<std::uint32_t>(msg.message.size()));
  out.append(msg.message.data(), msg.message.size());
  return out;
}

std::string encode_error(std::string_view message) {
  ErrorMsg msg;
  msg.message = std::string(message);
  return encode_error(msg);
}

std::string encode_stats_response(const StatsResponseMsg& msg) {
  const ServiceStats& s = msg.service;
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(s.epochs_cleared));
  put_f64(out, s.uptime_seconds);
  put_u64(out, s.queue_depth);
  put_u64(out, s.queue_capacity);
  put_u64(out, s.queue_high_watermark);
  put_u64(out, s.journal_bytes);
  put_f64(out, s.imbalance_gini);
  put_f64(out, s.imbalance_mean);
  put_u32(out, static_cast<std::uint32_t>(s.solve_threads));
  put_u32(out, static_cast<std::uint32_t>(s.last_components));
  put_u32(out, static_cast<std::uint32_t>(s.largest_component));
  put_u32(out, static_cast<std::uint32_t>(s.shed_level));
  put_f64(out, s.ewma_clear_seconds);
  put_u64(out, s.deadline_exceeded);
  put_u64(out, s.degraded_epochs);
  put_u64(out, s.aborted_epochs);
  put_f64(out, s.snapshot_age_seconds);
  put_u64(out, s.epochs_since_snapshot);
  put_u64(out, s.snapshots_taken);
  put_u64(out, s.journal_segments);
  put_u64(out, s.intake.accepted);
  put_u64(out, s.intake.replaced);
  put_u64(out, s.intake.rejected_full);
  put_u64(out, s.intake.rejected_invalid);
  put_u64(out, s.intake.rejected_closed);
  put_u64(out, s.intake.duplicate);
  put_u64(out, s.intake.rejected_overload);
  put_u32(out, static_cast<std::uint32_t>(msg.registry_json.size()));
  out.append(msg.registry_json.data(), msg.registry_json.size());
  return out;
}

StatsResponseMsg decode_stats_response(std::string_view payload) {
  Reader in = payload_reader(payload);
  StatsResponseMsg msg;
  ServiceStats& s = msg.service;
  s.epochs_cleared = static_cast<int>(in.u32());
  s.uptime_seconds = in.f64();
  s.queue_depth = in.u64();
  s.queue_capacity = in.u64();
  s.queue_high_watermark = in.u64();
  s.journal_bytes = in.u64();
  s.imbalance_gini = in.f64();
  s.imbalance_mean = in.f64();
  s.solve_threads = static_cast<int>(in.u32());
  s.last_components = static_cast<int>(in.u32());
  s.largest_component = static_cast<int>(in.u32());
  s.shed_level = static_cast<int>(in.u32());
  s.ewma_clear_seconds = in.f64();
  s.deadline_exceeded = in.u64();
  s.degraded_epochs = in.u64();
  s.aborted_epochs = in.u64();
  s.snapshot_age_seconds = in.f64();
  s.epochs_since_snapshot = in.u64();
  s.snapshots_taken = in.u64();
  s.journal_segments = in.u64();
  s.intake.accepted = in.u64();
  s.intake.replaced = in.u64();
  s.intake.rejected_full = in.u64();
  s.intake.rejected_invalid = in.u64();
  s.intake.rejected_closed = in.u64();
  s.intake.duplicate = in.u64();
  s.intake.rejected_overload = in.u64();
  if (!std::isfinite(s.uptime_seconds) || !std::isfinite(s.imbalance_gini) ||
      !std::isfinite(s.imbalance_mean) ||
      !std::isfinite(s.ewma_clear_seconds) ||
      // -1 is the "no snapshot yet" sentinel; anything non-finite is torn.
      !std::isfinite(s.snapshot_age_seconds)) {
    throw WireError("non-finite stats-response field");
  }
  msg.registry_json = std::string(in.bytes(in.u32()));
  expect_consumed(in, "stats-response");
  return msg;
}

ErrorMsg decode_error(std::string_view payload) {
  Reader in = payload_reader(payload);
  ErrorMsg msg;
  const std::uint16_t code = in.u16();
  if (code > static_cast<std::uint16_t>(ErrorCode::kRetryAfter)) {
    throw WireError("unknown error code " + std::to_string(code));
  }
  msg.code = static_cast<ErrorCode>(code);
  msg.retry_after_ms = in.u32();
  msg.message = std::string(in.bytes(in.u32()));
  expect_consumed(in, "error");
  return msg;
}

}  // namespace musketeer::svc
