#include "flow/solve_context.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"

namespace musketeer::flow {

void SolveContext::count_components() {
  // Union over every edge, capacity-0 included: a depleted or masked
  // edge still occupies its arc slot in the network simplex basis.
  const auto n = static_cast<std::size_t>(graph_.num_nodes());
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  const auto root = [&parent](NodeId v) {
    // Path halving: every probe points a node at its grandparent.
    while (parent[static_cast<std::size_t>(v)] != v) {
      const NodeId grandparent =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
      parent[static_cast<std::size_t>(v)] = grandparent;
      v = grandparent;
    }
    return v;
  };
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    const NodeId a = root(graph_.edge(e).from);
    const NodeId b = root(graph_.edge(e).to);
    if (a != b) parent[static_cast<std::size_t>(b)] = a;
  }
  // Roots that own an edge; isolated nodes are roots with none and
  // count as no component.
  std::vector<bool> has_edge(n, false);
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    has_edge[static_cast<std::size_t>(root(graph_.edge(e).from))] = true;
  }
  components_ = static_cast<int>(
      std::count(has_edge.begin(), has_edge.end(), true));
}

Circulation SolveContext::solve(SolveStats* stats) {
  MUSK_ASSERT_MSG(bound_, "SolveContext::solve before bind");
  MUSK_OBS_SPAN(span, "flow.solve");

  // One task on executor() rather than a direct call, so an attached
  // executor still sees every solve as a batch: perfbench's timing
  // executor reports flow.solve_ms from that batch and charges the rest
  // of a mechanism run to pricing. svc::ParallelExecutor runs a one-task
  // batch inline on this thread after one cancel poll.
  Circulation f;
  SolveStats local;
  try {
    executor().run(1, [&](std::size_t) {
      f = solve_max_welfare(graph_, ws_, SolverKind::kNetworkSimplex, &local,
                            cancel_);
    });
  } catch (const util::SolveCancelled&) {
    // All-or-nothing: the caller sees no result at all, and the next
    // call solves from scratch.
    ++stats_.cancelled;
    if (stats != nullptr) ++stats->cancelled;
    MUSK_OBS_COUNT("flow.solve.cancelled_total", 1);
    throw;
  }

  ++stats_.solves;
  stats_.fallbacks += local.fallbacks;

  MUSK_OBS_COUNT("flow.solve.total", 1);
  MUSK_OBS_COUNT("flow.solve.fallback_total",
                 static_cast<std::uint64_t>(local.fallbacks));
  MUSK_OBS_COUNT("flow.simplex.pivots_total",
                 static_cast<std::uint64_t>(local.pivots));
  MUSK_OBS_COUNT("flow.solve.zero_certified_total",
                 static_cast<std::uint64_t>(local.zero_flow_certified));
  MUSK_OBS_COUNT("flow.bf.passes_total",
                 static_cast<std::uint64_t>(local.bf_passes));
  MUSK_OBS_HISTOGRAM("flow.solve.seconds", span.end());
  if (stats != nullptr) {
    stats->cycles_cancelled += local.cycles_cancelled;
    stats->units_pushed += local.units_pushed;
    stats->pivots += local.pivots;
    stats->bf_passes += local.bf_passes;
    stats->zero_flow_certified += local.zero_flow_certified;
    stats->fallbacks += local.fallbacks;
  }
  return f;
}

std::vector<CycleFlow> SolveContext::decompose(const Circulation& f) {
  MUSK_ASSERT_MSG(bound_, "SolveContext::decompose before bind");
  MUSK_OBS_SPAN(span, "flow.decompose");
  std::vector<CycleFlow> cycles =
      decompose_sign_consistent(graph_, f, ws_.dec, cancel_);
  MUSK_OBS_COUNT("flow.decompose.cycles_total", cycles.size());
  MUSK_OBS_HISTOGRAM("flow.decompose.seconds", span.end());
  return cycles;
}

SolveContext& local_context() {
  thread_local SolveContext context;
  return context;
}

}  // namespace musketeer::flow
