// Round-trip and adversarial-input tests for the binary codec in
// core/io: the Reader primitives and the outcome record the journal
// stores in each OUTCOME.
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/game.hpp"
#include "core/io.hpp"
#include "core/m3_double_auction.hpp"
#include "core/m4_delayed.hpp"
#include "gen/game_gen.hpp"
#include "util/rng.hpp"

namespace musketeer::core {
namespace {

Game sample_game(std::uint64_t seed, flow::NodeId players = 16) {
  util::Rng rng(seed);
  gen::GameConfig config;
  return gen::random_ba_game(players, 2, config, rng);
}

void expect_outcomes_equal(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.circulation, b.circulation);
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t c = 0; c < a.cycles.size(); ++c) {
    const PricedCycle& x = a.cycles[c];
    const PricedCycle& y = b.cycles[c];
    EXPECT_EQ(x.cycle.edges, y.cycle.edges);
    EXPECT_EQ(x.cycle.amount, y.cycle.amount);
    ASSERT_EQ(x.prices.size(), y.prices.size());
    for (std::size_t i = 0; i < x.prices.size(); ++i) {
      EXPECT_EQ(x.prices[i].player, y.prices[i].player);
      EXPECT_DOUBLE_EQ(x.prices[i].price, y.prices[i].price);
    }
    EXPECT_DOUBLE_EQ(x.release_time, y.release_time);
    EXPECT_DOUBLE_EQ(x.delay_bonus, y.delay_bonus);
    ASSERT_EQ(x.player_delay_bonuses.size(), y.player_delay_bonuses.size());
    for (std::size_t i = 0; i < x.player_delay_bonuses.size(); ++i) {
      EXPECT_EQ(x.player_delay_bonuses[i].player,
                y.player_delay_bonuses[i].player);
      EXPECT_DOUBLE_EQ(x.player_delay_bonuses[i].price,
                       y.player_delay_bonuses[i].price);
    }
  }
}

TEST(IoBinary, MechanismOutcomeRoundTrip) {
  // Real outcomes from two mechanisms, including M4's delay-bonus fields.
  const Game game = sample_game(13, 20);
  for (const Outcome& outcome :
       {M3DoubleAuction().run_truthful(game),
        M4DelayedAuction(2.0).run_truthful(game)}) {
    std::string bytes;
    codec::encode_outcome(outcome, bytes);
    expect_outcomes_equal(outcome, codec::outcome_from_bytes(bytes));
  }
}

TEST(IoBinary, EveryTruncationOfOutcomeThrows) {
  const Game game = sample_game(19, 20);
  const Outcome outcome = M4DelayedAuction(1.5).run_truthful(game);
  ASSERT_FALSE(outcome.cycles.empty()) << "test game cleared no cycles";
  std::string bytes;
  codec::encode_outcome(outcome, bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        codec::outcome_from_bytes(std::string_view(bytes).substr(0, len)),
        CodecError);
  }
}

std::string encoded(const Outcome& outcome) {
  std::string bytes;
  codec::encode_outcome(outcome, bytes);
  return bytes;
}

TEST(IoBinary, TrailingBytesRejected) {
  std::string bytes = encoded(M3DoubleAuction().run_truthful(sample_game(29)));
  bytes.push_back('\0');
  EXPECT_THROW(codec::outcome_from_bytes(bytes), CodecError);
}

TEST(IoBinary, OversizedCycleAndPriceCountsRejected) {
  std::string bytes;
  codec::put_u16(bytes, codec::kBinaryVersion);
  codec::put_u32(bytes, 0);            // circulation entries
  codec::put_u32(bytes, 0xffffffffu);  // cycles
  EXPECT_THROW(codec::outcome_from_bytes(bytes), CodecError);

  bytes.clear();
  codec::put_u16(bytes, codec::kBinaryVersion);
  codec::put_u32(bytes, 0);   // circulation entries
  codec::put_u32(bytes, 1);   // one cycle...
  codec::put_u32(bytes, 0);   // ...with zero edges
  codec::put_i64(bytes, 5);   // amount
  codec::put_u32(bytes, 0xffffffffu);  // price-list count bomb
  EXPECT_THROW(codec::outcome_from_bytes(bytes), CodecError);
}

TEST(IoBinary, OversizedCirculationCountRejected) {
  // The circulation list is the first count in an outcome record; a bomb
  // there must die in check_count like the others.
  std::string bytes;
  codec::put_u16(bytes, codec::kBinaryVersion);
  codec::put_u32(bytes, 0xffffffffu);  // circulation entries
  EXPECT_THROW(codec::outcome_from_bytes(bytes), CodecError);
}

TEST(IoBinary, EmptyAndGarbageInputRejected) {
  EXPECT_THROW(codec::outcome_from_bytes(""), CodecError);

  // All-ones garbage: version check fires first; with the version bytes
  // patched in, the saturated counts must still be rejected.
  std::string garbage(64, static_cast<char>(0xff));
  EXPECT_THROW(codec::outcome_from_bytes(garbage), CodecError);

  std::string versioned;
  codec::put_u16(versioned, codec::kBinaryVersion);
  versioned += std::string(62, static_cast<char>(0xff));
  EXPECT_THROW(codec::outcome_from_bytes(versioned), CodecError);
}

TEST(IoBinary, WrongVersionRejected) {
  std::string bytes = encoded(M3DoubleAuction().run_truthful(sample_game(31)));
  bytes[0] = static_cast<char>(codec::kBinaryVersion + 1);
  EXPECT_THROW(codec::outcome_from_bytes(bytes), CodecError);
}

// encode_outcome writes whatever it is given; the decoder is the gate.
TEST(IoBinary, SemanticValidationOnDecode) {
  const Outcome good = M3DoubleAuction().run_truthful(sample_game(37, 20));
  ASSERT_FALSE(good.cycles.empty()) << "test game cleared no cycles";
  ASSERT_FALSE(good.cycles[0].prices.empty());
  EXPECT_NO_THROW(codec::outcome_from_bytes(encoded(good)));

  Outcome bad = good;
  bad.circulation[0] = -1;
  EXPECT_THROW(codec::outcome_from_bytes(encoded(bad)), CodecError);

  bad = good;
  bad.cycles[0].cycle.amount = -1;
  EXPECT_THROW(codec::outcome_from_bytes(encoded(bad)), CodecError);

  bad = good;
  bad.cycles[0].prices[0].price = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(codec::outcome_from_bytes(encoded(bad)), CodecError);
}

TEST(IoBinary, ReaderPrimitives) {
  std::string bytes;
  codec::put_u8(bytes, 0xab);
  codec::put_u16(bytes, 0x1234);
  codec::put_u32(bytes, 0xdeadbeef);
  codec::put_u64(bytes, 0x0102030405060708ull);
  codec::put_i64(bytes, -42);
  codec::put_f64(bytes, -0.0625);
  bytes += "tail";
  codec::Reader in{std::string_view(bytes)};
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0x1234);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0102030405060708ull);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_DOUBLE_EQ(in.f64(), -0.0625);
  EXPECT_THROW(in.bytes(5), CodecError);
  EXPECT_EQ(in.bytes(4), "tail");
  EXPECT_TRUE(in.done());
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_THROW(in.u8(), CodecError);
}

}  // namespace
}  // namespace musketeer::core
