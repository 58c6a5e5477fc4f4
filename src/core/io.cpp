#include "core/io.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/properties.hpp"
#include "util/table.hpp"

namespace musketeer::core {

namespace {

[[noreturn]] void parse_error(int line, const std::string& message) {
  throw std::runtime_error("musketeer-game parse error at line " +
                           std::to_string(line) + ": " + message);
}

}  // namespace

std::string to_text(const Game& game) {
  std::ostringstream out;
  out << "musketeer-game v1\n";
  out << "players " << game.num_players() << "\n";
  out.precision(12);
  for (EdgeId e = 0; e < game.num_edges(); ++e) {
    const GameEdge& edge = game.edge(e);
    out << "edge " << edge.from << " " << edge.to << " " << edge.capacity
        << " " << edge.tail_valuation << " " << edge.head_valuation << "\n";
  }
  return out.str();
}

Game game_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;

  auto next_meaningful = [&](std::string& out_line) {
    while (std::getline(in, line)) {
      ++line_no;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const auto start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos) continue;
      out_line = line.substr(start);
      return true;
    }
    return false;
  };

  std::string current;
  if (!next_meaningful(current) || current.rfind("musketeer-game v1", 0) != 0) {
    parse_error(line_no, "expected header 'musketeer-game v1'");
  }
  if (!next_meaningful(current)) parse_error(line_no, "missing 'players'");
  std::istringstream header(current);
  std::string keyword;
  long long num_players = -1;
  header >> keyword >> num_players;
  if (keyword != "players" || num_players < 0 || header.fail()) {
    parse_error(line_no, "expected 'players <n>'");
  }

  Game game(static_cast<NodeId>(num_players));
  while (next_meaningful(current)) {
    std::istringstream row(current);
    long long from = 0, to = 0, capacity = 0;
    double tail = 0.0, head = 0.0;
    row >> keyword >> from >> to >> capacity >> tail >> head;
    if (keyword != "edge" || row.fail()) {
      parse_error(line_no, "expected 'edge <from> <to> <cap> <tail> <head>'");
    }
    if (from < 0 || from >= num_players || to < 0 || to >= num_players ||
        from == to) {
      parse_error(line_no, "edge endpoints out of range");
    }
    if (capacity < 0) parse_error(line_no, "negative capacity");
    if (tail > 0.0 || tail <= -kMaxFeeRate) {
      parse_error(line_no, "tail valuation outside (-0.1, 0]");
    }
    if (head < 0.0 || head >= kMaxFeeRate) {
      parse_error(line_no, "head valuation outside [0, 0.1)");
    }
    game.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to),
                  capacity, tail, head);
  }
  return game;
}

Game load_game(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open game file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return game_from_text(buffer.str());
}

void save_game(const Game& game, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write game file: " + path);
  out << to_text(game);
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::string describe_outcome(const Game& game, const Outcome& outcome) {
  std::ostringstream out;
  out << "cycles: " << outcome.cycles.size()
      << ", rebalanced volume: " << flow::total_volume(outcome.circulation)
      << ", realized welfare: "
      << util::fmt_double(outcome.realized_welfare(game), 6) << "\n";
  for (std::size_t i = 0; i < outcome.cycles.size(); ++i) {
    const PricedCycle& pc = outcome.cycles[i];
    out << "  cycle " << i << ": amount " << pc.cycle.amount << ", edges [";
    for (std::size_t j = 0; j < pc.cycle.edges.size(); ++j) {
      const GameEdge& e = game.edge(pc.cycle.edges[j]);
      out << e.from << "->" << e.to
          << (j + 1 < pc.cycle.edges.size() ? " " : "");
    }
    out << "]";
    if (pc.release_time > 0.0) {
      out << ", release t=" << util::fmt_double(pc.release_time, 3);
    }
    out << "\n";
    for (const PlayerPrice& p : pc.prices) {
      out << "    player " << p.player
          << (p.price >= 0 ? " pays " : " receives ")
          << util::fmt_double(p.price >= 0 ? p.price : -p.price, 6) << "\n";
    }
  }
  const auto balance = check_cyclic_budget_balance(outcome);
  const auto rationality = check_individual_rationality(game, outcome);
  out << "cyclic budget balance: max |cycle sum| = "
      << util::format("%.2e", balance.max_cycle_imbalance) << "\n";
  out << "individual rationality: min cycle utility = "
      << util::fmt_double(rationality.min_cycle_utility, 6) << "\n";
  return out.str();
}

namespace codec {

namespace {

void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

double checked_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    throw CodecError(std::string("non-finite ") + what);
  }
  return v;
}

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { append_le(out, v, 1); }
void put_u16(std::string& out, std::uint16_t v) { append_le(out, v, 2); }
void put_u32(std::string& out, std::uint32_t v) { append_le(out, v, 4); }
void put_u64(std::string& out, std::uint64_t v) { append_le(out, v, 8); }
void put_i64(std::string& out, std::int64_t v) {
  append_le(out, static_cast<std::uint64_t>(v), 8);
}
void put_f64(std::string& out, double v) {
  append_le(out, std::bit_cast<std::uint64_t>(v), 8);
}

void Reader::fail(const char* what) const {
  throw CodecError(std::string("binary decode error: ") + what);
}

const unsigned char* Reader::take(std::size_t n) {
  if (remaining() < n) fail("truncated input");
  const auto* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() { return *take(1); }

std::uint16_t Reader::u16() {
  const unsigned char* p = take(2);
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t Reader::u32() {
  const unsigned char* p = take(4);
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t Reader::u64() {
  const unsigned char* p = take(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string_view Reader::bytes(std::size_t n) {
  return {reinterpret_cast<const char*>(take(n)), n};
}

void Reader::expect_end() const {
  if (!done()) fail("trailing bytes after record");
}

std::size_t Reader::check_count(std::uint64_t count,
                                std::size_t min_record_bytes) {
  if (min_record_bytes == 0) min_record_bytes = 1;
  if (count > remaining() / min_record_bytes) {
    fail("element count exceeds payload size");
  }
  return static_cast<std::size_t>(count);
}

namespace {

void encode_player_prices(const std::vector<PlayerPrice>& prices,
                          std::string& out) {
  put_u32(out, static_cast<std::uint32_t>(prices.size()));
  for (const PlayerPrice& p : prices) {
    put_u32(out, static_cast<std::uint32_t>(p.player));
    put_f64(out, p.price);
  }
}

std::vector<PlayerPrice> decode_player_prices(Reader& in) {
  const std::size_t n = in.check_count(in.u32(), 12);
  std::vector<PlayerPrice> prices;
  prices.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PlayerPrice p;
    p.player = static_cast<PlayerId>(in.u32());
    p.price = checked_finite(in.f64(), "price");
    prices.push_back(p);
  }
  return prices;
}

}  // namespace

void encode_outcome(const Outcome& outcome, std::string& out) {
  put_u16(out, kBinaryVersion);
  put_u32(out, static_cast<std::uint32_t>(outcome.circulation.size()));
  for (const flow::Amount f : outcome.circulation) put_i64(out, f);
  put_u32(out, static_cast<std::uint32_t>(outcome.cycles.size()));
  for (const PricedCycle& pc : outcome.cycles) {
    put_u32(out, static_cast<std::uint32_t>(pc.cycle.edges.size()));
    for (const flow::EdgeId e : pc.cycle.edges) {
      put_u32(out, static_cast<std::uint32_t>(e));
    }
    put_i64(out, pc.cycle.amount);
    encode_player_prices(pc.prices, out);
    put_f64(out, pc.release_time);
    put_f64(out, pc.delay_bonus);
    encode_player_prices(pc.player_delay_bonuses, out);
  }
}

Outcome decode_outcome(Reader& in) {
  const std::uint16_t version = in.u16();
  if (version != kBinaryVersion) {
    throw CodecError("unsupported outcome record version " +
                     std::to_string(version));
  }
  Outcome outcome;
  const std::size_t num_edges = in.check_count(in.u32(), 8);
  outcome.circulation.reserve(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::int64_t f = in.i64();
    if (f < 0) throw CodecError("negative circulation flow");
    outcome.circulation.push_back(f);
  }
  // A cycle needs at least edge-count u32 + amount i64 + two empty price
  // lists (u32 each) + release/bonus f64s = 36 bytes.
  const std::size_t num_cycles = in.check_count(in.u32(), 36);
  outcome.cycles.reserve(num_cycles);
  for (std::size_t c = 0; c < num_cycles; ++c) {
    PricedCycle pc;
    const std::size_t cycle_edges = in.check_count(in.u32(), 4);
    pc.cycle.edges.reserve(cycle_edges);
    for (std::size_t i = 0; i < cycle_edges; ++i) {
      pc.cycle.edges.push_back(static_cast<flow::EdgeId>(in.u32()));
    }
    pc.cycle.amount = in.i64();
    if (pc.cycle.amount < 0) throw CodecError("negative cycle amount");
    pc.prices = decode_player_prices(in);
    pc.release_time = checked_finite(in.f64(), "release time");
    pc.delay_bonus = checked_finite(in.f64(), "delay bonus");
    pc.player_delay_bonuses = decode_player_prices(in);
    outcome.cycles.push_back(std::move(pc));
  }
  return outcome;
}

Outcome outcome_from_bytes(std::string_view bytes) {
  Reader in(bytes);
  Outcome outcome = decode_outcome(in);
  in.expect_end();
  return outcome;
}

}  // namespace codec

}  // namespace musketeer::core
