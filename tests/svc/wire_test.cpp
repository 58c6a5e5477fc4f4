// Wire protocol: framing, incremental parsing, adversarial headers, and
// per-message payload round-trips.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/io.hpp"
#include "svc/wire.hpp"

namespace musketeer::svc {
namespace {

TEST(Wire, FrameRoundTrip) {
  std::string stream;
  append_frame(stream, MsgType::kHello, "abc");
  append_frame(stream, MsgType::kShutdown, "");

  FrameParser parser;
  parser.feed(stream.data(), stream.size());
  const auto first = parser.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kHello);
  EXPECT_EQ(first->payload, "abc");
  const auto second = parser.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MsgType::kShutdown);
  EXPECT_TRUE(second->payload.empty());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(Wire, OneByteAtATimeReassembles) {
  std::string stream;
  append_frame(stream, MsgType::kSubmitBid, std::string(100, 'x'));
  append_frame(stream, MsgType::kBidAck, "y");

  FrameParser parser;
  std::vector<Frame> frames;
  for (char byte : stream) {
    parser.feed(&byte, 1);
    while (auto frame = parser.next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kSubmitBid);
  EXPECT_EQ(frames[0].payload.size(), 100u);
  EXPECT_EQ(frames[1].payload, "y");
}

TEST(Wire, HeaderRejectedBeforePayloadBuffered) {
  // Oversized length claim: rejected from the 12 header bytes alone —
  // the parser must not wait for (or buffer) the claimed 4 GiB.
  std::string header;
  core::codec::put_u32(header, kWireMagic);
  core::codec::put_u16(header, kWireVersion);
  core::codec::put_u16(header, static_cast<std::uint16_t>(MsgType::kHello));
  core::codec::put_u32(header, 0xfffffff0u);
  FrameParser parser;
  parser.feed(header.data(), header.size());
  EXPECT_THROW(parser.next(), WireError);
}

TEST(Wire, BadMagicVersionAndTypeRejected) {
  const auto make_header = [](std::uint32_t magic, std::uint16_t version,
                              std::uint16_t type) {
    std::string h;
    core::codec::put_u32(h, magic);
    core::codec::put_u16(h, version);
    core::codec::put_u16(h, type);
    core::codec::put_u32(h, 0);
    return h;
  };
  const std::uint16_t hello = static_cast<std::uint16_t>(MsgType::kHello);
  for (const std::string& header :
       {make_header(0x4B53554Eu, kWireVersion, hello),       // magic
        make_header(kWireMagic, kWireVersion + 1, hello),    // version
        make_header(kWireMagic, kWireVersion, 0),            // type 0
        make_header(kWireMagic, kWireVersion, 99)}) {        // type 99
    FrameParser parser;
    parser.feed(header.data(), header.size());
    EXPECT_THROW(parser.next(), WireError);
  }
}

TEST(Wire, IncompleteFrameIsNotAnError) {
  std::string stream;
  append_frame(stream, MsgType::kError, "problem");
  FrameParser parser;
  parser.feed(stream.data(), stream.size() - 1);
  EXPECT_FALSE(parser.next().has_value());  // waiting, not failing
  parser.feed(stream.data() + stream.size() - 1, 1);
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "problem");
}

TEST(Wire, OversizedAppendRejected) {
  std::string out;
  EXPECT_THROW(
      append_frame(out, MsgType::kError, std::string(kMaxFramePayload + 1, 'z')),
      WireError);
}

TEST(Wire, SubmitBidRoundTripAllFlagCombos) {
  for (int combo = 0; combo < 4; ++combo) {
    BidSubmission bid;
    bid.player = 17;
    bid.has_tail = (combo & 1) != 0;
    bid.tail_bid = -0.004;
    bid.has_head = (combo & 2) != 0;
    bid.head_bid = 0.007;
    bid.client_tag = 0xfeedface12345678ull;
    const BidSubmission back = decode_submit_bid(encode_submit_bid(bid));
    EXPECT_EQ(back.player, bid.player);
    EXPECT_EQ(back.has_tail, bid.has_tail);
    EXPECT_EQ(back.has_head, bid.has_head);
    EXPECT_DOUBLE_EQ(back.tail_bid, bid.tail_bid);
    EXPECT_DOUBLE_EQ(back.head_bid, bid.head_bid);
    EXPECT_EQ(back.client_tag, bid.client_tag);
  }
}

TEST(Wire, SubmitBidUnknownFlagBitsRejected) {
  std::string payload = encode_submit_bid(BidSubmission{});
  payload[4] = static_cast<char>(0x04);  // flag byte follows the u32 player
  EXPECT_THROW(decode_submit_bid(payload), WireError);
}

TEST(Wire, TruncatedAndOversizedPayloadsThrow) {
  const std::string payload = encode_submit_bid(BidSubmission{});
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode_submit_bid(payload.substr(0, len)), core::CodecError);
  }
  EXPECT_THROW(decode_submit_bid(payload + "x"), WireError);

  const std::string ack = encode_bid_ack(BidAckMsg{});
  for (std::size_t len = 0; len < ack.size(); ++len) {
    EXPECT_THROW(decode_bid_ack(ack.substr(0, len)), core::CodecError);
  }
}

TEST(Wire, BidAckRoundTrip) {
  BidAckMsg ack;
  ack.client_tag = 42;
  ack.status = IntakeStatus::kRejectedFull;
  ack.intake_epoch = 9;
  const BidAckMsg back = decode_bid_ack(encode_bid_ack(ack));
  EXPECT_EQ(back.client_tag, 42u);
  EXPECT_EQ(back.status, IntakeStatus::kRejectedFull);
  EXPECT_EQ(back.intake_epoch, 9u);

  std::string bad = encode_bid_ack(ack);
  bad[8] = 17;  // status byte follows the u64 tag
  EXPECT_THROW(decode_bid_ack(bad), WireError);
}

TEST(Wire, EpochResultRoundTrip) {
  EpochReport report;
  report.epoch = 3;
  report.bids_applied = 12;
  report.game_edges = 40;
  report.cycles_executed = 5;
  report.rebalanced_volume = 1234;
  report.fees_paid = 0.75;
  report.clear_seconds = 0.002;
  report.network_digest = 0xdeadbeefcafef00dull;
  const EpochResultMsg msg = decode_epoch_result(encode_epoch_result(report));
  EXPECT_EQ(msg.epoch, 3u);
  EXPECT_EQ(msg.bids_applied, 12u);
  EXPECT_EQ(msg.game_edges, 40u);
  EXPECT_EQ(msg.cycles_executed, 5u);
  EXPECT_EQ(msg.rebalanced_volume, 1234);
  EXPECT_DOUBLE_EQ(msg.fees_paid, 0.75);
  EXPECT_DOUBLE_EQ(msg.clear_seconds, 0.002);
  EXPECT_EQ(msg.network_digest, 0xdeadbeefcafef00dull);
}

TEST(Wire, PlayerNoticeAndErrorRoundTrip) {
  PlayerNotice notice;
  notice.player = 6;
  notice.price = -0.25;
  notice.cycles = 2;
  notice.volume = 88;
  notice.delay_bonus = 0.125;
  const PlayerNoticeMsg msg =
      decode_player_notice(encode_player_notice(11, notice));
  EXPECT_EQ(msg.epoch, 11u);
  EXPECT_EQ(msg.notice.player, 6);
  EXPECT_DOUBLE_EQ(msg.notice.price, -0.25);
  EXPECT_EQ(msg.notice.cycles, 2);
  EXPECT_EQ(msg.notice.volume, 88);
  EXPECT_DOUBLE_EQ(msg.notice.delay_bonus, 0.125);

  EXPECT_EQ(decode_error(encode_error("boom")).message, "boom");
  EXPECT_THROW(decode_error(encode_error("boom") + "!"), WireError);
}

TEST(Wire, SubmitBidSequenceRoundTrip) {
  BidSubmission bid;
  bid.player = 3;
  bid.has_head = true;
  bid.head_bid = 0.01;
  bid.client_tag = 77;
  bid.seq = 0xabcdef01u;
  const BidSubmission back = decode_submit_bid(encode_submit_bid(bid));
  EXPECT_EQ(back.seq, 0xabcdef01u);
  // seq 0 (unsequenced, pre-v2 client behaviour) survives too.
  bid.seq = 0;
  EXPECT_EQ(decode_submit_bid(encode_submit_bid(bid)).seq, 0u);
}

TEST(Wire, BidAckSequenceAndDuplicateStatusRoundTrip) {
  BidAckMsg ack;
  ack.client_tag = 5;
  ack.status = IntakeStatus::kDuplicate;
  ack.intake_epoch = 2;
  ack.seq = 41;
  const BidAckMsg back = decode_bid_ack(encode_bid_ack(ack));
  EXPECT_EQ(back.status, IntakeStatus::kDuplicate);
  EXPECT_EQ(back.seq, 41u);
}

TEST(Wire, StructuredErrorRoundTrip) {
  ErrorMsg busy;
  busy.code = ErrorCode::kRetryAfter;
  busy.retry_after_ms = 250;
  busy.message = "shedding load";
  const ErrorMsg back = decode_error(encode_error(busy));
  EXPECT_EQ(back.code, ErrorCode::kRetryAfter);
  EXPECT_EQ(back.retry_after_ms, 250u);
  EXPECT_EQ(back.message, "shedding load");

  // The legacy string overload is a kGeneric error with no hint.
  const ErrorMsg generic = decode_error(encode_error("boom"));
  EXPECT_EQ(generic.code, ErrorCode::kGeneric);
  EXPECT_EQ(generic.retry_after_ms, 0u);
}

TEST(Wire, UnknownErrorCodeRejected) {
  // Hand-craft a payload with code 2 (beyond the known enum range).
  std::string payload;
  core::codec::put_u16(payload, 2);
  core::codec::put_u32(payload, 0);
  core::codec::put_u32(payload, 0);
  EXPECT_THROW(decode_error(payload), WireError);
}

TEST(Wire, TruncatedErrorPayloadsThrow) {
  ErrorMsg msg;
  msg.code = ErrorCode::kRetryAfter;
  msg.retry_after_ms = 9;
  msg.message = "hi";
  const std::string payload = encode_error(msg);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode_error(payload.substr(0, len)), std::runtime_error);
  }
}

// A distinct value in every field, so a codec that drops, swaps or
// narrows one cannot pass.
TEST(Wire, StatsResponseRoundTripsEveryField) {
  StatsResponseMsg msg;
  ServiceStats& s = msg.service;
  s.epochs_cleared = 1;
  s.uptime_seconds = 2.5;
  s.queue_depth = 3;
  s.queue_capacity = 4;
  s.queue_high_watermark = 5;
  s.journal_bytes = 6;
  s.imbalance_gini = 0.125;
  s.imbalance_mean = 0.25;
  s.solve_threads = 9;
  s.last_components = 10;
  s.largest_component = 11;
  s.shed_level = 12;
  s.ewma_clear_seconds = 0.0625;
  s.deadline_exceeded = 14;
  s.degraded_epochs = 15;
  s.aborted_epochs = 16;
  s.snapshot_age_seconds = 17.5;
  s.epochs_since_snapshot = 18;
  s.snapshots_taken = 19;
  s.journal_segments = 20;
  s.intake.accepted = 21;
  s.intake.replaced = 22;
  s.intake.rejected_full = 23;
  s.intake.rejected_invalid = 24;
  s.intake.rejected_closed = 25;
  s.intake.duplicate = 26;
  s.intake.rejected_overload = 27;
  msg.registry_json = R"({"counters": {"svc.epoch.total": 28}})";

  const std::string payload = encode_stats_response(msg);
  const StatsResponseMsg back = decode_stats_response(payload);
  const ServiceStats& b = back.service;
  EXPECT_EQ(b.epochs_cleared, 1);
  EXPECT_DOUBLE_EQ(b.uptime_seconds, 2.5);
  EXPECT_EQ(b.queue_depth, 3u);
  EXPECT_EQ(b.queue_capacity, 4u);
  EXPECT_EQ(b.queue_high_watermark, 5u);
  EXPECT_EQ(b.journal_bytes, 6u);
  EXPECT_DOUBLE_EQ(b.imbalance_gini, 0.125);
  EXPECT_DOUBLE_EQ(b.imbalance_mean, 0.25);
  EXPECT_EQ(b.solve_threads, 9);
  EXPECT_EQ(b.last_components, 10);
  EXPECT_EQ(b.largest_component, 11);
  EXPECT_EQ(b.shed_level, 12);
  EXPECT_DOUBLE_EQ(b.ewma_clear_seconds, 0.0625);
  EXPECT_EQ(b.deadline_exceeded, 14u);
  EXPECT_EQ(b.degraded_epochs, 15u);
  EXPECT_EQ(b.aborted_epochs, 16u);
  EXPECT_DOUBLE_EQ(b.snapshot_age_seconds, 17.5);
  EXPECT_EQ(b.epochs_since_snapshot, 18u);
  EXPECT_EQ(b.snapshots_taken, 19u);
  EXPECT_EQ(b.journal_segments, 20u);
  EXPECT_EQ(b.intake.accepted, 21u);
  EXPECT_EQ(b.intake.replaced, 22u);
  EXPECT_EQ(b.intake.rejected_full, 23u);
  EXPECT_EQ(b.intake.rejected_invalid, 24u);
  EXPECT_EQ(b.intake.rejected_closed, 25u);
  EXPECT_EQ(b.intake.duplicate, 26u);
  EXPECT_EQ(b.intake.rejected_overload, 27u);
  EXPECT_EQ(back.registry_json, msg.registry_json);

  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(decode_stats_response(payload.substr(0, len)),
                 std::runtime_error)
        << "prefix of length " << len << " was accepted";
  }
  EXPECT_THROW(decode_stats_response(payload + "x"), WireError);
}

TEST(Wire, HelloRoundTrip) {
  HelloMsg msg;
  msg.player = 123;
  EXPECT_EQ(decode_hello(encode_hello(msg)).player, 123);
  EXPECT_THROW(decode_hello(""), core::CodecError);
}

}  // namespace
}  // namespace musketeer::svc
