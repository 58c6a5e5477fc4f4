#!/usr/bin/env python3
"""musk_lint: repo-specific lexical lint rules for the Musketeer tree.

Rules (each has a stable id used in inline suppressions):

  raw-assert   No raw C `assert(...)` -- use MUSK_ASSERT / MUSK_ASSERT_MSG
               from util/assert.hpp so failures carry file/line context and
               survive NDEBUG builds. (`static_assert` and gtest's
               ASSERT_*/EXPECT_* macros are fine.)
  float-eq     No `==` / `!=` against a floating-point literal outside
               src/core/properties.cpp (the one place where tolerance
               handling is centralised). Exact comparisons elsewhere hide
               rounding bugs; compare against a tolerance instead.
  rand         No `rand()` / `srand()` -- use util::Rng so every experiment
               is seedable and reproducible.
  graph-in-mechanism
               No direct `flow::Graph` construction or `build_graph*()`
               call inside src/core/m*_*.cpp -- mechanisms must obtain
               their graphs through the flow::SolveContext layer
               (Game::bind_graph / SolveContext::bind_from) so repeated
               runs on one topology reuse the bound graph and solver
               workspaces instead of rebuilding per call.

Thread-hygiene rules (the service layer is concurrent; these keep every
wait interruptible and every thread joined):

  thread-detach  No `std::thread::detach()` -- a detached thread cannot be
                 joined at shutdown, races destructors, and breaks tsan
                 runs. Use std::jthread and keep the handle.
  naked-sleep    No `sleep` / `usleep` / `sleep_for` / `sleep_until` -- a
                 sleeping thread ignores shutdown. Wait on a
                 condition_variable(_any) with a predicate/stop_token, or
                 poll(2) with a bounded timeout, so stop requests interrupt
                 the wait.
  system-call    No `system()` -- it blocks, inherits fds into a shell, and
                 is unkillable from a stop_token. Spawn helpers explicitly
                 or do the work in-process.
  cv-wait        No deadline-free `.wait(` (condition_variable or future) --
                 a wait with no timeout can block shutdown forever if the
                 matching notify is lost to a crash or a bug. Use
                 `wait_for` / `wait_until` in a predicate loop so the wait
                 re-checks its exit condition on a bounded cadence.
  bare-catch     No `catch (...)` that swallows -- a handler that neither
                 rethrows nor is explicitly allowed hides the very failures
                 the chaos suite injects. Cleanup-and-rethrow handlers
                 (a `throw;` within the next few lines) are fine.
  raw-thread     No raw `std::thread` outside src/svc/executor.* -- a
                 std::thread neither joins on scope exit nor carries a
                 stop_token. Parallel fan-out goes through
                 svc::ParallelExecutor (the one seam that forks threads
                 for a batch and joins them before it returns); a one-off
                 helper thread is std::jthread so shutdown joins it. The
                 executor files are exempt (they call
                 std::thread::hardware_concurrency()).
  adhoc-timing   No `steady_clock::now()` (or high_resolution_clock /
                 system_clock, or a `Clock::now()` alias read) in src/ or
                 tools/ outside src/obs/ -- time a duration with
                 obs::Timer, a span with MUSK_OBS_SPAN, and get a raw
                 time_point (deadline arithmetic) from
                 obs::Timer::clock(), so every measurement flows through
                 the one observability clock. src/util/deadline.hpp is
                 the one sanctioned exemption: cancellation deadlines
                 must stay off the obs seam so disabling observability
                 cannot change solve behavior. bench/ and tests/ are
                 exempt: harnesses time whatever they like.
  solver-timing  No clock types, clock reads, or deadline construction
                 (`Deadline::after` / `.expired()`) anywhere in src/flow.
                 Solvers do not own time: a hand-rolled timeout loop in a
                 solver bypasses the cancellation contract (cancel points
                 at iteration boundaries only, DESIGN.md section 14) and
                 can unwind mid-push. A solver observes time exclusively
                 by polling its util::CancelToken via MUSK_CANCEL_POINT;
                 arming deadlines is the service layer's job.
  unchecked-rename
                 No raw `rename(` / `unlink(` outside src/svc/file_io.cpp
                 and src/svc/snapshot.cpp -- the file layer owns the
                 checked unlink and snapshot.cpp the tmp-write/fsync/
                 rename/dir-fsync publication protocol, and both check
                 every return code (DESIGN.md section 15). A bare
                 rename or unlink elsewhere either skips durability (the
                 rename "succeeds" but vanishes on power loss) or silently
                 ignores failure, and bypasses the crash-recovery
                 invariants the chaos suite enforces. Delete scratch files
                 with std::remove / std::filesystem::remove, or route
                 journal-directory mutations through Journal /
                 SnapshotStore.

Lock-discipline rules (every lock in the tree carries a rank from the
hierarchy in DESIGN.md section 11 and its guarded state is annotated):

  unranked-mutex No raw `std::mutex` / `std::condition_variable` (or their
                 timed/recursive/shared/_any variants) in src/ outside
                 src/util/ -- use util::OrderedMutex / util::OrderedCondVar
                 so every acquisition is rank-checked by the lock-order
                 auditor and visible to clang's thread-safety analysis.
  unguarded-member
                 In src/ headers outside src/util/, every member declared
                 in the contiguous run after an OrderedMutex member must
                 carry MUSK_GUARDED_BY(...) or be exempt (std::atomic,
                 std::jthread, OrderedMutex/OrderedCondVar, const/static/
                 constexpr). State the mutex does not guard belongs after
                 a blank line or access specifier, not interleaved with
                 what it does guard.

A line may opt out of one rule with a justification comment on that line:

    x == 0.0;  // musk-lint: allow(float-eq)

Usage: musk_lint.py [repo-root]              lint the tree
       musk_lint.py --selftest [repo-root]   run every rule against the
                                             fixture corpus under
                                             tests/tools/lint_corpus/ and
                                             diff the violation set against
                                             its expected.txt manifest
Exit status: 0 clean, 1 violations found (or selftest mismatch).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}
SCAN_DIRS = ["src", "tests", "bench", "examples", "tools"]

# `assert(` not preceded by an identifier character: skips static_assert,
# MUSK_ASSERT (uppercase), and gtest ASSERT_* macros.
RAW_ASSERT = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
# A float literal on either side of ==/!=.
FLOAT_EQ = re.compile(r"[=!]=\s*-?\d+\.\d*|\d+\.\d*[fF]?\s*[=!]=")
RAND = re.compile(r"(?<![A-Za-z0-9_.:])s?rand\s*\(")
# `.detach(` on anything thread-like (member call spelling).
THREAD_DETACH = re.compile(r"\.\s*detach\s*\(")
# The exact `std::thread` token: `std::jthread` and `std::this_thread`
# do not contain it and stay allowed.
RAW_THREAD = re.compile(r"\bstd::thread\b")
# The one seam allowed to construct raw threads / query the hardware.
EXECUTOR_FILES = {Path("src/svc/executor.hpp"), Path("src/svc/executor.cpp")}
# Naked sleeps: POSIX sleep/usleep/nanosleep and std::this_thread
# sleep_for/sleep_until.
NAKED_SLEEP = re.compile(
    r"(?<![A-Za-z0-9_])(?:u?sleep|nanosleep|sleep_for|sleep_until)\s*\(")
# `system(` as a free/std call (not ::system qualifier-on-the-left like
# foo::system or a member x.system()).
SYSTEM_CALL = re.compile(r"(?<![A-Za-z0-9_.:])(?:std::|::)?system\s*\(")
# `.wait(` exactly: `.wait_for(` / `.wait_until(` have a `_` after "wait"
# and do not match.
CV_WAIT = re.compile(r"\.\s*wait\s*\(")
# A catch-everything handler. Checked with lookahead in lint_file: only a
# handler with no `throw` in the following lines is a violation.
BARE_CATCH = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
RETHROW = re.compile(r"\bthrow\b")
# How many lines after a catch (...) may contain the rethrow.
BARE_CATCH_LOOKAHEAD = 20
# A Graph being constructed (`Graph g...`, by value) or an explicit
# build_graph/build_graph_without call. Reference bindings (`Graph& g`)
# to a context-owned graph are fine and do not match.
GRAPH_IN_MECH = re.compile(r"\bGraph\s+[A-Za-z_]|\.\s*build_graph(?:_without)?\s*\(")
# A raw clock read. Naming a clock type (steady_clock::time_point in a
# deadline parameter) is fine; *reading* it outside src/obs is not. The
# `Clock::now(` arm closes the alias dodge (`using Clock = steady_clock`).
ADHOC_TIMING = re.compile(
    r"\b(?:steady_clock|high_resolution_clock|system_clock|Clock)"
    r"\s*::\s*now\s*\(")
# The sanctioned home for cancellation-deadline clock reads (see the
# header's own comment). It cannot use obs::Timer: src/util sits below
# src/obs, which links musketeer_util.
DEADLINE_HEADER = Path("src/util/deadline.hpp")
# Solvers may not own time at all: any clock type mention, any `::now(`
# read (aliases included), or any Deadline construction / expiry check
# inside src/flow is a hand-rolled timeout bypassing MUSK_CANCEL_POINT.
SOLVER_TIMING = re.compile(
    r"\b(?:steady_clock|high_resolution_clock|system_clock)\b"
    r"|::\s*now\s*\(|\bDeadline\s*::\s*after\b|\.\s*expired\s*\(")
# A raw POSIX rename/unlink call (optionally ::/std:: qualified). Member
# spellings (`x.rename(`) and foreign qualifiers (`fs::rename(`) do not
# match; std::remove / std::filesystem::remove stay allowed for scratch
# cleanup. The durable-publication protocol lives in snapshot.cpp.
UNCHECKED_RENAME = re.compile(
    r"(?<![A-Za-z0-9_.:])(?:std::|::)?(?:rename|unlink)\s*\(")
# Exactly the files that call raw rename/unlink (and the corpus mirrors).
RENAME_OWNERS = re.compile(r"^src/svc/(?:file_io|snapshot)\.cpp$")
# Any raw standard-library mutex or condition variable type. OrderedMutex
# wraps these inside src/util/, which is exempt via the path predicate.
UNRANKED_MUTEX = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"(?:mutex|condition_variable(?:_any)?)\b")
# Arms the unguarded-member scan: an OrderedMutex member declaration.
ORDERED_MUTEX_MEMBER = re.compile(r"\bOrderedMutex\s+[A-Za-z_][A-Za-z0-9_]*")
# A declaration exempt from MUSK_GUARDED_BY: synchronisation objects,
# atomics, thread handles, and immutable members need no guard.
GUARD_EXEMPT = re.compile(
    r"MUSK_GUARDED_BY|MUSK_PT_GUARDED_BY|std::atomic|std::jthread"
    r"|std::stop_token|OrderedMutex|OrderedCondVar"
    r"|\bstatic\b|\bconstexpr\b|^\s*const\b")
ACCESS_SPECIFIER = re.compile(r"^\s*(?:public|protected|private)\s*:")
ALLOW = re.compile(r"musk-lint:\s*allow\(([a-z-]+)\)")
MECHANISM_FILE = re.compile(r"m\d+_\w+\.cpp$")

# (rule id, pattern, predicate deciding whether the rule applies to a file).
RULES = [
    ("raw-assert", RAW_ASSERT, lambda rel: rel != Path("src/util/assert.hpp")),
    ("float-eq", FLOAT_EQ,
     lambda rel: rel.parts[0] == "src" and rel.name != "properties.cpp"),
    ("rand", RAND, lambda rel: True),
    ("graph-in-mechanism", GRAPH_IN_MECH,
     lambda rel: rel.parts[:2] == ("src", "core")
     and MECHANISM_FILE.match(rel.name) is not None),
    ("thread-detach", THREAD_DETACH, lambda rel: True),
    ("raw-thread", RAW_THREAD, lambda rel: rel not in EXECUTOR_FILES),
    ("naked-sleep", NAKED_SLEEP, lambda rel: True),
    ("system-call", SYSTEM_CALL, lambda rel: True),
    ("cv-wait", CV_WAIT, lambda rel: True),
    ("unranked-mutex", UNRANKED_MUTEX,
     lambda rel: rel.parts[0] == "src"
     and rel.parts[:2] not in {("src", "util"), ("src", "obs")}),
    ("adhoc-timing", ADHOC_TIMING,
     lambda rel: rel.parts[0] in {"src", "tools"}
     and rel.parts[:2] != ("src", "obs") and rel != DEADLINE_HEADER),
    ("solver-timing", SOLVER_TIMING,
     lambda rel: rel.parts[:2] == ("src", "flow")),
    ("unchecked-rename", UNCHECKED_RENAME,
     lambda rel: RENAME_OWNERS.match(rel.as_posix()) is None),
]


def applies_unguarded_member(rel: Path) -> bool:
    return (rel.parts[0] == "src" and rel.parts[:2] != ("src", "util")
            and rel.suffix in {".hpp", ".h"})


def unguarded_members(rel: Path, lines: list[str]) -> list[str]:
    """Members declared right after an OrderedMutex without MUSK_GUARDED_BY.

    An OrderedMutex member arms the scan; every following declaration in
    the same contiguous run must either carry MUSK_GUARDED_BY or be exempt
    (GUARD_EXEMPT). The run ends at a blank line, an access specifier, or
    the end of the class -- put unguarded state there, visibly outside the
    mutex's block. Declarations may span lines; each is judged whole (the
    text up to its `;`). Comment lines are transparent.
    """
    violations = []
    # idle: before any mutex | consume_mutex: inside a multi-line mutex
    # decl | armed: between decls in a mutex's run | consume_decl: inside
    # the decl being judged.
    state = "idle"
    decl: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if state == "idle":
            if not is_comment(line) and ORDERED_MUTEX_MEMBER.search(line):
                state = "armed" if ";" in line else "consume_mutex"
            continue
        if state == "consume_mutex":
            if ";" in line:
                state = "armed"
            continue
        if state == "armed":
            if (not stripped or ACCESS_SPECIFIER.match(line)
                    or stripped.startswith("};")):
                state = "idle"
                continue
            if is_comment(line) or stripped.startswith("#"):
                continue
            if ORDERED_MUTEX_MEMBER.search(line):
                # A second mutex starts its own run.
                state = "armed" if ";" in line else "consume_mutex"
                continue
            decl = [(lineno, line)]
            state = "consume_decl"
        elif state == "consume_decl":
            decl.append((lineno, line))
        if state == "consume_decl" and any(";" in t for _, t in decl):
            first_lineno, first_line = decl[0]
            text = " ".join(part.strip() for _, part in decl)
            decl = []
            state = "armed"
            if "unguarded-member" in ALLOW.findall(text):
                continue
            if GUARD_EXEMPT.search(text):
                continue
            violations.append(
                f"{rel}:{first_lineno}: [unguarded-member] "
                f"{first_line.strip()}")
    return violations


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*")


def swallowing_catch(lines: list[str], index: int) -> bool:
    """True if the catch (...) at lines[index] never rethrows.

    Lexical approximation: a cleanup-and-rethrow handler mentions `throw`
    within the handler's first few lines; a swallowing one does not.
    """
    lookahead = lines[index:index + BARE_CATCH_LOOKAHEAD]
    return not any(RETHROW.search(line) for line in lookahead)


def lint_file(root: Path, path: Path) -> list[str]:
    rel = path.relative_to(root)
    if rel.name == "musk_lint.py":
        return []
    violations = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [f"{rel}: unreadable: {err}"]
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        allowed = set(ALLOW.findall(line))
        for rule, pattern, applies in RULES:
            if rule in allowed or not applies(rel):
                continue
            if pattern.search(line):
                violations.append(
                    f"{rel}:{lineno}: [{rule}] {line.strip()}")
        if ("bare-catch" not in allowed and not is_comment(line)
                and BARE_CATCH.search(line)
                and swallowing_catch(lines, lineno - 1)):
            violations.append(
                f"{rel}:{lineno}: [bare-catch] {line.strip()}")
    if applies_unguarded_member(rel):
        violations.extend(unguarded_members(rel, lines))
    return violations


# Regex over our own violation format, for the selftest diff.
VIOLATION_LINE = re.compile(r"^(.*?):\d+: \[([a-z-]+)\]")


def selftest(root: Path) -> int:
    """Lints the fixture corpus and diffs against its expected.txt.

    The corpus mirrors repo paths (so path predicates fire) and carries a
    manifest of `<relpath> <rule>` lines: one per violation the fixtures
    must produce. Any difference in either direction -- a rule that went
    quiet or one that started firing on clean code -- fails the test.
    """
    corpus = root / "tests" / "tools" / "lint_corpus"
    manifest = corpus / "expected.txt"
    if not manifest.is_file():
        print(f"musk_lint: selftest manifest missing: {manifest}",
              file=sys.stderr)
        return 1
    expected = set()
    for raw in manifest.read_text(encoding="utf-8").splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        path, rule = entry.rsplit(None, 1)
        expected.add((path, rule))
    files = sorted(p for p in corpus.rglob("*")
                   if p.suffix in CXX_SUFFIXES and p.is_file())
    got = set()
    for f in files:
        for v in lint_file(corpus, f):
            m = VIOLATION_LINE.match(v)
            if m:
                got.add((m.group(1), m.group(2)))
    status = 0
    for path, rule in sorted(expected - got):
        print(f"musk_lint selftest: MISSED expected violation "
              f"[{rule}] in {path}")
        status = 1
    for path, rule in sorted(got - expected):
        print(f"musk_lint selftest: FALSE POSITIVE [{rule}] in {path}")
        status = 1
    print(f"musk_lint selftest: {len(files)} fixtures, "
          f"{len(got)} violations, "
          f"{'MISMATCH' if status else 'all as expected'}")
    return status


def main(argv: list[str]) -> int:
    argv = list(argv)
    run_selftest = "--selftest" in argv
    if run_selftest:
        argv.remove("--selftest")
    root = Path(argv[1]).resolve() if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent)
    if run_selftest:
        return selftest(root)
    files = sorted(
        p for d in SCAN_DIRS for p in (root / d).rglob("*")
        if p.suffix in CXX_SUFFIXES and p.is_file()
        and "lint_corpus" not in p.parts)
    if not files:
        print(f"musk_lint: no C++ sources found under {root}", file=sys.stderr)
        return 1
    violations = [v for f in files for v in lint_file(root, f)]
    for v in violations:
        print(v)
    print(f"musk_lint: scanned {len(files)} files, "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
