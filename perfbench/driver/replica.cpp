#include "replica.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "flow/solver.hpp"

namespace perfbench {

namespace {

check::AuditOptions audit_options(const core::Mechanism& mechanism) {
  check::AuditOptions options;
  options.check_individual_rationality =
      mechanism.claims_individual_rationality();
  return options;
}

}  // namespace

void TimingExecutor::run(std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  Recorder::Scope batch(recorder_, "flow.solve_batch", epoch_, parent_);
  const int batch_id = batch.id();
  const int epoch = epoch_;
  inner_.run(count, [&](std::size_t i) {
    Recorder::Scope task(recorder_, "flow.task", epoch, batch_id);
    fn(i);
  });
}

Replica::Replica(pcn::Network network, const core::Mechanism& mechanism,
                 const pcn::RebalancePolicy& policy, int threads,
                 Recorder& recorder, svc::Journal* journal)
    : network_(std::move(network)),
      mechanism_(mechanism),
      policy_(policy),
      recorder_(recorder),
      journal_(journal),
      auditor_(audit_options(mechanism)),
      executor_(threads, recorder) {
  ctx_.set_executor(&executor_);
}

std::uint64_t Replica::replay(int epoch, EpochCounts& counts, Result& result) {
  Recorder::Scope root(recorder_, "bench.epoch", epoch, -1);
  const int parent = root.id();
  const std::string where = "epoch " + std::to_string(epoch) + ": ";

  std::uint64_t pre_digest = 0;
  {
    Recorder::Scope span(recorder_, "pcn.state_digest", epoch, parent);
    pre_digest = network_.state_digest();
  }
  pcn::ExtractedGame extracted = [&] {
    Recorder::Scope span(recorder_, "pcn.extract_and_lock", epoch, parent);
    return pcn::extract_and_lock(network_, policy_);
  }();
  const core::Game& game = extracted.game;
  counts.game_edges = game.num_edges();
  const std::uint64_t bytes_before =
      journal_ != nullptr ? journal_->committed_bytes() : 0;
  if (journal_ != nullptr) {
    Recorder::Scope span(recorder_, "svc.journal_append", epoch, parent);
    journal_->append_begin(epoch, pre_digest);
  }

  if (game.num_edges() > 0) {
    // Participation refreshes carry no overrides, so the service clears
    // every epoch on the extracted truthful bids.
    const core::BidVector bids = game.truthful_bids();
    const flow::ContextStats before = ctx_.stats();
    core::Outcome outcome;
    {
      Recorder::Scope span(recorder_, "core.mechanism", epoch, parent);
      executor_.set_scope(epoch, span.id());
      outcome = mechanism_.run(ctx_, game, bids);
    }
    const flow::ContextStats& after = ctx_.stats();
    counts.solves = after.solves - before.solves;
    counts.structure_builds = after.structure_builds - before.structure_builds;
    counts.rebinds = after.rebinds - before.rebinds;
    counts.fallbacks = after.fallbacks - before.fallbacks;
    counts.components = ctx_.last_component_count();

    const core::BidVector audited = mechanism_.audited_bids(bids);
    {
      Recorder::Scope span(recorder_, "core.bind_graph", epoch, parent);
      game.bind_graph(bind_ctx_, audited);
    }
    std::vector<flow::CycleFlow> cycles;
    {
      Recorder::Scope span(recorder_, "flow.decompose", epoch, parent);
      cycles = ctx_.decompose(outcome.circulation);
    }
    bool same_cycles = cycles.size() == outcome.cycles.size();
    for (std::size_t i = 0; same_cycles && i < cycles.size(); ++i) {
      same_cycles = cycles[i].edges == outcome.cycles[i].cycle.edges &&
                    cycles[i].amount == outcome.cycles[i].cycle.amount;
    }
    if (!same_cycles) {
      result.fail(where + "re-run decomposition differs from the outcome's");
    }
    {
      Recorder::Scope span(recorder_, "check.audit", epoch, parent);
      const check::AuditReport report = auditor_.audit_outcome(
          game, audited, outcome, mechanism_.name());
      if (!report.ok()) result.fail(where + report.to_string());
      if (!flow::is_optimal(bind_ctx_.graph(), outcome.circulation)) {
        result.fail(where + "circulation is not certified optimal");
      }
    }
    if (journal_ != nullptr) {
      Recorder::Scope span(recorder_, "svc.journal_append", epoch, parent);
      journal_->append_outcome(epoch, pre_digest, outcome);
    }
    Recorder::Scope span(recorder_, "pcn.apply_outcome", epoch, parent);
    counts.cycles_settled =
        pcn::apply_outcome(network_, extracted, outcome).cycles_executed;
  }

  std::uint64_t post_digest = 0;
  {
    Recorder::Scope span(recorder_, "pcn.state_digest", epoch, parent);
    post_digest = network_.state_digest();
  }
  if (journal_ != nullptr) {
    {
      Recorder::Scope span(recorder_, "svc.journal_append", epoch, parent);
      journal_->append_settled(epoch, post_digest);
    }
    counts.journal_bytes = journal_->committed_bytes() - bytes_before;
  }
  return post_digest;
}

void report_layers(const Recorder& recorder,
                   const std::vector<TracedEpoch>& epochs,
                   double gen_lag_max_s, Result& result) {
  const auto totals = recorder.totals();
  std::map<std::string, std::vector<double>> ms;  // span name -> per epoch
  std::vector<double> self_mechanism, broadcast;
  for (const TracedEpoch& e : epochs) {
    const auto found = totals.find(e.tag);
    const std::map<std::string, Recorder::Totals> none;
    const auto& by_name = found == totals.end() ? none : found->second;
    const auto get = [&](const char* name) -> Recorder::Totals {
      const auto it = by_name.find(name);
      return it == by_name.end() ? Recorder::Totals{} : it->second;
    };
    for (const char* name :
         {"pcn.extract_and_lock", "pcn.apply_outcome", "pcn.state_digest",
          "core.mechanism", "core.bind_graph", "flow.solve_batch",
          "flow.decompose", "svc.journal_append", "svc.run_epoch"}) {
      ms[name].push_back(1e3 * get(name).duration_s);
    }
    ms["flow.task.max"].push_back(1e3 * get("flow.task").max_duration_s);
    // Pricing is what Mechanism::run spends outside its solve batches,
    // its bind and its decomposition.
    self_mechanism.push_back(
        std::max(0.0, 1e3 * (get("core.mechanism").self_s -
                             get("core.bind_graph").duration_s -
                             get("flow.decompose").duration_s)));
    broadcast.push_back(1e3 * (get("svc.run_epoch").duration_s -
                               e.clear_seconds));
  }
  const auto med = [&](const char* name) { return median(ms[name]); };
  result.set("pcn.extract_ms", med("pcn.extract_and_lock"), "ms");
  result.set("pcn.settle_ms", med("pcn.apply_outcome"), "ms");
  result.set("pcn.digest_us", 1e3 * med("pcn.state_digest"), "us");
  result.set("core.mechanism_ms", med("core.mechanism"), "ms");
  result.set("core.bind_ms", med("core.bind_graph"), "ms");
  result.set("core.pricing_ms", median(self_mechanism), "ms");
  result.set("flow.solve_ms", med("flow.solve_batch"), "ms");
  result.set("flow.slowest_task_ms", med("flow.task.max"), "ms");
  result.set("flow.decompose_ms", med("flow.decompose"), "ms");
  result.set("svc.run_epoch_ms", med("svc.run_epoch"), "ms");
  result.set("svc.broadcast_ms", median(broadcast), "ms");
  result.set("svc.journal_append_us", 1e3 * med("svc.journal_append"), "us");
  result.set("bench.gen_lag_ms_max", 1e3 * gen_lag_max_s, "ms");

  // The services under test run without a journal, so the bench-owned
  // journal's appends are not part of their clear.
  const double attributed = med("pcn.extract_and_lock") +
                            med("core.mechanism") + med("pcn.apply_outcome") +
                            med("pcn.state_digest") + median(broadcast);
  result.set("bench.unattributed_ms", med("svc.run_epoch") - attributed, "ms");

  const auto per_epoch = [&](auto field) {
    double sum = 0.0;
    for (const TracedEpoch& e : epochs) sum += static_cast<double>(field(e));
    return epochs.empty() ? 0.0 : sum / static_cast<double>(epochs.size());
  };
  const auto count = [&](const char* name, auto field) {
    const double value = per_epoch(field);
    result.set(name, value, "count");
    result.counts[name] = value;
  };
  count("pcn.game_edges", [](const TracedEpoch& e) { return e.counts.game_edges; });
  count("pcn.cycles_settled",
        [](const TracedEpoch& e) { return e.counts.cycles_settled; });
  count("flow.solves", [](const TracedEpoch& e) { return e.counts.solves; });
  count("flow.structure_builds",
        [](const TracedEpoch& e) { return e.counts.structure_builds; });
  count("flow.rebinds", [](const TracedEpoch& e) { return e.counts.rebinds; });
  count("flow.fallbacks",
        [](const TracedEpoch& e) { return e.counts.fallbacks; });
  count("flow.components",
        [](const TracedEpoch& e) { return e.counts.components; });
  result.set("svc.journal_bytes_per_epoch",
             per_epoch([](const TracedEpoch& e) { return e.counts.journal_bytes; }),
             "bytes");
  result.set("svc.bids_per_epoch",
             per_epoch([](const TracedEpoch& e) { return e.bids_applied; }),
             "count");
}

}  // namespace perfbench
