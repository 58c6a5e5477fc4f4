#include "flow/solve_context.hpp"

#include "obs/obs.hpp"

namespace musketeer::flow {

namespace {

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kBellmanFord: return "bellman_ford";
    case SolverKind::kNetworkSimplex: return "network_simplex";
  }
  return "unknown";
}

/// Static span names so Event can store them by pointer. (Unused when
/// the MUSK_OBS_SPAN macro compiles to nothing.)
[[maybe_unused]] const char* solve_span_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kBellmanFord: return "flow.solve/bellman_ford";
    case SolverKind::kNetworkSimplex: return "flow.solve/network_simplex";
  }
  return "flow.solve/unknown";
}

}  // namespace

void SolveContext::ensure_shards() {
  if (shard_builds_mark_ != stats_.structure_builds) {
    // Topology changed: re-partition and rebuild every slot graph. Each
    // slot build is a real graph construction and is counted as one, so
    // SolveStats::graph_rebuilds sums the rebuild work across components
    // instead of sampling one.
    const Partition& part = partitioner_.run(graph_);
    const int k = part.num_components();
    slots_.resize(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c) {
      ComponentSlot& slot = slots_[static_cast<std::size_t>(c)];
      const std::span<const EdgeId> edges = part.edges(c);
      slot.edges.assign(edges.begin(), edges.end());
      Graph g(graph_.num_nodes());
      for (const EdgeId e : slot.edges) {
        const Edge& edge = graph_.edge(e);
        g.add_edge(edge.from, edge.to, edge.capacity, edge.gain);
      }
      slot.graph = std::move(g);
      ++stats_.structure_builds;
      MUSK_OBS_COUNT("flow.graph.build_total", 1);
    }
    shard_builds_mark_ = stats_.structure_builds;
    shard_sync_mark_ = stats_.structure_builds + stats_.rebinds;
  } else if (shard_sync_mark_ != stats_.structure_builds + stats_.rebinds) {
    // Same topology, fresh capacities/gains (a rebind): refresh every
    // slot in place — the per-component analogue of the zero-rebuild
    // rebind.
    for (ComponentSlot& slot : slots_) {
      for (std::size_t i = 0; i < slot.edges.size(); ++i) {
        const Edge& edge = graph_.edge(slot.edges[i]);
        const EdgeId local = static_cast<EdgeId>(i);
        slot.graph.set_capacity(local, edge.capacity);
        slot.graph.set_gain(local, edge.gain);
      }
    }
    shard_sync_mark_ = stats_.structure_builds + stats_.rebinds;
  }
}

Circulation SolveContext::solve(SolverKind kind, SolveStats* stats) {
  MUSK_ASSERT_MSG(bound_, "SolveContext::solve before bind");
  MUSK_OBS_SPAN(span, solve_span_name(kind));
  span.set_detail(solver_kind_name(kind));
  ensure_shards();

  // Solve every slot as a disjoint executor task.
  slot_stats_.assign(slots_.size(), SolveStats{});
  try {
    executor().run(slots_.size(), [&](std::size_t c) {
      ComponentSlot& slot = slots_[c];
      MUSK_OBS_SPAN(component_span, "core.solve.component");
      component_span.set_detail(solver_kind_name(kind));
      slot.flow = solve_max_welfare(slot.graph, slot.ws, kind,
                                    &slot_stats_[c], cancel_);
      MUSK_OBS_HISTOGRAM("core.solve.component.seconds",
                         component_span.end());
    });
  } catch (const util::SolveCancelled&) {
    // All-or-nothing: merges happen only after every task finished, so
    // the caller sees no result at all, and the next call re-solves
    // every slot.
    ++stats_.cancelled;
    if (stats != nullptr) ++stats->cancelled;
    MUSK_OBS_COUNT("flow.solve.cancelled_total", 1);
    throw;
  }

  // Deterministic merge in component-id order: scatter each component's
  // local flows to their global edge ids and sum the per-component
  // counters (never "last component wins").
  Circulation f = zero_circulation(graph_);
  for (const ComponentSlot& slot : slots_) {
    for (std::size_t i = 0; i < slot.edges.size(); ++i) {
      f[static_cast<std::size_t>(slot.edges[i])] = slot.flow[i];
    }
  }
  SolveStats local;
  for (const SolveStats& s : slot_stats_) {
    local.cycles_cancelled += s.cycles_cancelled;
    local.units_pushed += s.units_pushed;
    local.pivots += s.pivots;
    local.zero_flow_certified += s.zero_flow_certified;
    local.fallbacks += s.fallbacks;
  }
  local.graph_rebuilds =
      static_cast<int>(stats_.structure_builds - builds_at_last_solve_);
  builds_at_last_solve_ = stats_.structure_builds;
  ++stats_.solves;
  stats_.fallbacks += local.fallbacks;
  last_components_ = static_cast<int>(slots_.size());
  last_largest_component_ = partitioner_.partition().largest_component_edges();

#if defined(MUSKETEER_AUDIT)
  // Each component task already re-certified its own optimality; the
  // merged circulation must additionally conserve flow on the full
  // graph (components share no edges, so this can only fail on a
  // merge-order bug — exactly what it is here to catch).
  MUSK_ASSERT_MSG(is_feasible(graph_, f),
                  "audit: component merge produced an infeasible circulation");
#endif

  MUSK_OBS_COUNT("flow.solve.total", 1);
  MUSK_OBS_COUNT("flow.solve.fallback_total",
                 static_cast<std::uint64_t>(local.fallbacks));
  MUSK_OBS_COUNT("flow.simplex.pivots_total",
                 static_cast<std::uint64_t>(local.pivots));
  MUSK_OBS_COUNT("flow.solve.zero_certified_total",
                 static_cast<std::uint64_t>(local.zero_flow_certified));
  MUSK_OBS_HISTOGRAM("flow.solve.seconds", span.end());
  if (stats != nullptr) {
    stats->cycles_cancelled += local.cycles_cancelled;
    stats->units_pushed += local.units_pushed;
    stats->pivots += local.pivots;
    stats->zero_flow_certified += local.zero_flow_certified;
    stats->fallbacks += local.fallbacks;
    stats->graph_rebuilds += local.graph_rebuilds;
  }
  return f;
}

std::vector<CycleFlow> SolveContext::decompose(const Circulation& f) {
  MUSK_ASSERT_MSG(bound_, "SolveContext::decompose before bind");
  MUSK_OBS_SPAN(span, "flow.decompose");
  std::vector<CycleFlow> cycles =
      decompose_sign_consistent(graph_, f, dec_, cancel_);
  MUSK_OBS_COUNT("flow.decompose.cycles_total", cycles.size());
  MUSK_OBS_HISTOGRAM("flow.decompose.seconds", span.end());
  return cycles;
}

const Graph& SolveContext::component_graph(int c) const {
  MUSK_ASSERT_MSG(shards_ready(), "no current shard pool");
  MUSK_ASSERT(c >= 0 && c < static_cast<int>(slots_.size()));
  return slots_[static_cast<std::size_t>(c)].graph;
}

std::span<const EdgeId> SolveContext::component_edges(int c) const {
  MUSK_ASSERT_MSG(shards_ready(), "no current shard pool");
  MUSK_ASSERT(c >= 0 && c < static_cast<int>(slots_.size()));
  return slots_[static_cast<std::size_t>(c)].edges;
}

SolveContext& local_context() {
  thread_local SolveContext context;
  return context;
}

}  // namespace musketeer::flow
