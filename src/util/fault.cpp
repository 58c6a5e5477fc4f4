#include "util/fault.hpp"

#include <poll.h>

#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace musketeer::util::fault {
namespace {

// The registry is fixed at compile time: a schedule naming an unknown
// point is a spec typo, and the chaos suite asserts every one of these
// is exercised. Keep in sync with DESIGN.md §10.3.
constexpr const char* kPoints[] = {
    "wire.client.send",        // client frame bytes before write()
    "wire.server.send",        // server frame bytes before write()
    "sock.connect",            // client connect(2) about to be issued
    "journal.write",           // encoded journal record before write()
    "journal.fsync",           // fsync(2) of the journal fd
    "svc.crash_after_begin",   // epoch begun, locks held, nothing journaled
    "svc.crash_before_commit", // outcome computed, OUTCOME not yet durable
    "svc.crash_after_commit",  // OUTCOME durable, settle not yet applied
    "svc.crash_mid_settle",    // settle applied, SETTLED not yet journaled
    "deadline.expire",         // epoch clear attempt armed its deadline
    "degrade.fail",            // degradation rung about to run
    "segment.roll",            // journal about to open a fresh segment
    "snapshot.write",          // encoded snapshot bytes before tmp write
    "snapshot.rename",         // snapshot tmp written, rename not yet issued
    "compact.unlink",          // compaction about to unlink a segment
    "disk.full",               // journal/snapshot write hits simulated ENOSPC
};

enum class Action { kCrash, kFail, kDrop, kTruncate, kCorrupt, kDelay };

struct Entry {
  Action action{};
  std::uint64_t nth = 1;   // fires on the nth hit of the point
  std::uint64_t arg = 0;   // delay milliseconds
  bool fired = false;
};

struct State {
  /// Ranked last: hooks fire from under every other lock in the tree
  /// (journal appends, connection writes, the epoch pipeline).
  OrderedMutex mu{LockRank::kFaultRegistry, "fault-registry"};
  std::uint64_t seed MUSK_GUARDED_BY(mu) = 1;
  std::unordered_map<std::string, std::vector<Entry>> entries
      MUSK_GUARDED_BY(mu);
  std::unordered_map<std::string, std::uint64_t> counters
      MUSK_GUARDED_BY(mu);
  std::string spec MUSK_GUARDED_BY(mu);
  bool env_loaded MUSK_GUARDED_BY(mu) = false;
};

State& state() {
  static State s;
  return s;
}

bool known_point(const std::string& name) {
  for (const char* p : kPoints) {
    if (name == p) return true;
  }
  return false;
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::runtime_error("MUSK_FAULT_SPEC \"" + spec + "\": " + why);
}

// splitmix64: deterministic byte/offset choice for `corrupt` without
// dragging util::Rng into this leaf library.
std::uint64_t mix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void parse_locked(State& s, const std::string& spec) MUSK_REQUIRES(s.mu) {
  s.mu.assert_held();
  s.entries.clear();
  s.counters.clear();
  s.seed = 1;
  s.spec = spec;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ';')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) bad_spec(spec, "entry \"" + item + "\" has no '='");
    std::string lhs = item.substr(0, eq);
    const std::string rhs = item.substr(eq + 1);
    if (lhs == "seed") {
      s.seed = std::strtoull(rhs.c_str(), nullptr, 10);
      continue;
    }
    Entry e;
    const auto at = lhs.find('@');
    if (at != std::string::npos) {
      e.nth = std::strtoull(lhs.c_str() + at + 1, nullptr, 10);
      if (e.nth == 0) bad_spec(spec, "\"" + lhs + "\": @nth is 1-based");
      lhs.resize(at);
    }
    if (!known_point(lhs)) bad_spec(spec, "unknown point \"" + lhs + "\"");
    std::string action = rhs;
    const auto colon = rhs.find(':');
    if (colon != std::string::npos) {
      action = rhs.substr(0, colon);
      e.arg = std::strtoull(rhs.c_str() + colon + 1, nullptr, 10);
    }
    if (action == "crash") e.action = Action::kCrash;
    else if (action == "fail") e.action = Action::kFail;
    else if (action == "drop") e.action = Action::kDrop;
    else if (action == "truncate") e.action = Action::kTruncate;
    else if (action == "corrupt") e.action = Action::kCorrupt;
    else if (action == "delay") e.action = Action::kDelay;
    else bad_spec(spec, "unknown action \"" + action + "\"");
    s.entries[lhs].push_back(e);
  }
}

void ensure_env_locked(State& s) MUSK_REQUIRES(s.mu) {
  s.mu.assert_held();
  if (s.env_loaded) return;
  s.env_loaded = true;
  const char* spec = std::getenv("MUSK_FAULT_SPEC");
  if (spec != nullptr && *spec != '\0') parse_locked(s, spec);
}

// Advances the point's hit counter and returns the entry (if any) that
// fires on this hit. Entries are one-shot.
Entry* advance_locked(State& s, const char* point) MUSK_REQUIRES(s.mu) {
  ensure_env_locked(s);
  const std::uint64_t n = ++s.counters[point];
  auto it = s.entries.find(point);
  if (it == s.entries.end()) return nullptr;
  for (Entry& e : it->second) {
    if (!e.fired && e.nth == n) {
      e.fired = true;
      return &e;
    }
  }
  return nullptr;
}

[[noreturn]] void crash(const char* point) {
  throw CrashPoint(std::string("simulated crash at fault point ") + point);
}

void delay_ms(std::uint64_t ms) {
  // poll(2) with no fds is the sanctioned bounded block (see musk_lint
  // naked-sleep); injected delays are short and test-only.
  ::poll(nullptr, 0, static_cast<int>(ms));
}

}  // namespace

bool compiled_in() {
#if defined(MUSKETEER_FAULTS)
  return true;
#else
  return false;
#endif
}

void configure(const std::string& spec) {
  State& s = state();
  const OrderedLock lock(s.mu);
  parse_locked(s, spec);
  s.env_loaded = true;  // explicit schedule wins over the environment
}

void configure_from_env() {
  State& s = state();
  const OrderedLock lock(s.mu);
  s.env_loaded = false;
  ensure_env_locked(s);
}

void clear() {
  State& s = state();
  const OrderedLock lock(s.mu);
  s.entries.clear();
  s.counters.clear();
  s.spec.clear();
  s.seed = 1;
  s.env_loaded = true;
}

std::string schedule_string() {
  State& s = state();
  const OrderedLock lock(s.mu);
  return s.spec;
}

std::vector<std::string> points() {
  return {std::begin(kPoints), std::end(kPoints)};
}

std::uint64_t hits(const std::string& point) {
  State& s = state();
  const OrderedLock lock(s.mu);
  const auto it = s.counters.find(point);
  return it == s.counters.end() ? 0 : it->second;
}

void hit(const char* point) {
  State& s = state();
  std::uint64_t delay = 0;
  {
    const OrderedLock lock(s.mu);
    Entry* e = advance_locked(s, point);
    if (e == nullptr) return;
    switch (e->action) {
      case Action::kCrash:
        crash(point);
      case Action::kDelay:
        delay = e->arg;
        break;
      default:
        break;  // buffer/failure actions are meaningless on a bare hit
    }
  }
  if (delay > 0) delay_ms(delay);
}

bool should_fail(const char* point) {
  State& s = state();
  std::uint64_t delay = 0;
  bool fail = false;
  {
    const OrderedLock lock(s.mu);
    Entry* e = advance_locked(s, point);
    if (e != nullptr) {
      switch (e->action) {
        case Action::kCrash:
          crash(point);
        case Action::kFail:
          fail = true;
          break;
        case Action::kDelay:
          delay = e->arg;
          break;
        default:
          break;
      }
    }
  }
  if (delay > 0) delay_ms(delay);
  return fail;
}

void mutate(const char* point, std::string& bytes) {
  State& s = state();
  std::uint64_t delay = 0;
  {
    const OrderedLock lock(s.mu);
    Entry* e = advance_locked(s, point);
    if (e != nullptr) {
      switch (e->action) {
        case Action::kCrash:
          crash(point);
        case Action::kDrop:
          bytes.clear();
          break;
        case Action::kTruncate:
          bytes.resize(bytes.size() / 2);
          break;
        case Action::kCorrupt:
          if (!bytes.empty()) {
            std::uint64_t r = s.seed;
            const std::uint64_t off = mix(r) % bytes.size();
            // Flip a low bit so the byte always changes.
            bytes[off] = static_cast<char>(
                static_cast<unsigned char>(bytes[off]) ^
                (1u << (mix(r) % 8)));
          }
          break;
        case Action::kDelay:
          delay = e->arg;
          break;
        default:
          break;
      }
    }
  }
  if (delay > 0) delay_ms(delay);
}

}  // namespace musketeer::util::fault
