// Abstract rebalancing mechanism interface (Definition 1).
//
//     M : (G, c, b) -> (f_i, p_i)_{1<=i<=k}
//
// Mechanisms are pure: running one has no state, so property checkers and
// strategy probes can re-invoke them with perturbed bids cheaply.
//
// `run` is a template method: it delegates to the virtual `run_impl` and,
// when the build defines MUSKETEER_AUDIT, feeds the result through the
// invariant auditor (src/check/) — conservation, capacity, decomposition
// sign-consistency, cyclic budget balance, IR and bid bounds are
// re-verified after every single invocation, aborting with a structured
// violation report on the first breach.
//
// Every run threads through a flow::SolveContext, which pools the flow
// graph and all solver scratch across invocations and solves with the
// network simplex (see flow/solve_context.hpp). The context-free
// overloads delegate to the calling thread's flow::local_context(), so
// legacy call sites keep working and still benefit from buffer reuse —
// results are bit-identical either way.
#pragma once

#include <string_view>

#include "core/game.hpp"
#include "core/outcome.hpp"
#include "flow/solve_context.hpp"

#if defined(MUSKETEER_AUDIT)
#include "check/audit_hook.hpp"
#endif

namespace musketeer::core {

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Computes the priced cycle decomposition for the given bids (and
  /// audits it when MUSKETEER_AUDIT is compiled in), solving through
  /// `ctx`. The context must be owned by the calling thread.
  Outcome run(flow::SolveContext& ctx, const Game& game,
              const BidVector& bids) const {
    MUSK_OBS_SPAN(span, "core.mechanism");
    span.set_detail(name().data());  // name() returns a literal-backed view
    MUSK_OBS_COUNT("core.mechanism.run_total", 1);
    Outcome outcome = run_impl(ctx, game, bids);
    MUSK_OBS_HISTOGRAM("core.mechanism.seconds", span.seconds());
#if defined(MUSKETEER_AUDIT)
    check::audit_mechanism_outcome_or_die(*this, game, bids, outcome);
#endif
    return outcome;
  }

  /// Context-free convenience: runs on the calling thread's shared
  /// context.
  Outcome run(const Game& game, const BidVector& bids) const {
    return run(flow::local_context(), game, bids);
  }

  virtual std::string_view name() const = 0;

  /// True when the mechanism guarantees per-cycle individual rationality
  /// under the (audited) submitted bid profile. Mechanisms whose IR is
  /// conditional — M1 needs self-selection, Hide & Seek and the local
  /// baseline ignore private seller costs — override this to false so
  /// the auditor skips the IR check (all other invariants still apply).
  virtual bool claims_individual_rationality() const { return true; }

  /// The bid profile the mechanism's guarantees are stated against. M2
  /// overrides this to zero out tail bids (its sellers are non-strategic).
  virtual BidVector audited_bids(const BidVector& bids) const { return bids; }

  /// Convenience: run under truthful bids.
  Outcome run_truthful(flow::SolveContext& ctx, const Game& game) const {
    return run(ctx, game, game.truthful_bids());
  }

  Outcome run_truthful(const Game& game) const {
    return run(game, game.truthful_bids());
  }

 protected:
  /// The mechanism proper. Implementations never call this directly —
  /// always go through run() so the audit hook fires. All flow graphs
  /// and solver scratch should come from `ctx` so repeated runs on one
  /// topology stay allocation-free.
  virtual Outcome run_impl(flow::SolveContext& ctx, const Game& game,
                           const BidVector& bids) const = 0;
};

}  // namespace musketeer::core
