// SolveContext: the zero-rebuild solve path.
//
// A SolveContext owns a flow::Graph plus pooled per-component solver
// state and lets callers run many solves on one topology without
// re-allocating either. The contract:
//
//   * bind_from(source)   — if the source has the same structure as the
//     currently bound graph (node count and per-edge endpoints), only
//     capacities and gains are refreshed in place ("rebind", O(m), no
//     allocation); otherwise the graph is rebuilt ("structure build").
//   * solve(kind, stats)  — solve_max_welfare on the bound graph, one
//     weakly-connected component per task. SolveStats::graph_rebuilds
//     reports how many structure builds this context performed since its
//     previous solve (0 on a warm rebind-only path).
//
// Results are bit-identical to building a fresh Graph and calling
// solve_max_welfare on it: only buffers are reused, never algorithmic
// state, and the per-component optima merge into exactly the
// whole-graph optimum (DESIGN.md §13 has the per-solver argument).
//
// Every solve partitions the bound graph into weakly-connected
// components (flow::Partitioner) and solves them as independent tasks
// through the attached Executor — or, with none attached, an inline
// SerialExecutor, so "--threads 1" means the components are solved in
// turn on the calling thread. Flows and stats merge in component-id
// order; SolveStats counters sum across components. Each component
// keeps its own subgraph (global node-id space, component edges in
// ascending global order), workspace, and last solved circulation:
//
//   * the shard pool is (re)built only on structure builds and its
//     capacities/gains are refreshed in place on rebinds, so quiescent
//     epochs perform no partitioning and no graph construction;
//   * the component accessors below let a caller re-solve one component
//     on its own — M2 reprices each buyer on its component only.
//
// Thread ownership: a SolveContext is single-threaded state, like the
// Workspace its slots embed; only the component tasks it hands to the
// executor run concurrently, and those touch disjoint slots. One
// context per thread; the thread_local local_context() backs legacy
// entry points. See DESIGN.md §9 and §13.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "flow/decompose.hpp"
#include "flow/executor.hpp"
#include "flow/graph.hpp"
#include "flow/partitioner.hpp"
#include "flow/solver.hpp"
#include "flow/workspace.hpp"
#include "obs/obs.hpp"

namespace musketeer::flow {

/// Lifetime counters of one SolveContext.
struct ContextStats {
  /// Full Graph (re)constructions: binds on a new/changed structure plus
  /// per-component shard-pool (re)builds — one count per graph built, so
  /// the rebuild work is summed, not sampled.
  long long structure_builds = 0;
  /// In-place capacity/gain refreshes on an unchanged structure.
  long long rebinds = 0;
  /// Solves run through this context.
  long long solves = 0;
  /// Network-simplex pivot-cap fallbacks observed across those solves.
  long long fallbacks = 0;
  /// Solves a cancel token interrupted (each threw util::SolveCancelled).
  long long cancelled = 0;
};

class SolveContext {
 public:
  SolveContext() = default;
  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;
  SolveContext(SolveContext&&) = default;
  SolveContext& operator=(SolveContext&&) = default;

  bool bound() const { return bound_; }

  const Graph& graph() const {
    MUSK_ASSERT_MSG(bound_, "SolveContext used before bind");
    return graph_;
  }

  const ContextStats& stats() const { return stats_; }

  /// Attaches the executor component tasks fan out through (borrowed;
  /// must outlive the context or be detached with nullptr). nullptr
  /// selects the context's inline SerialExecutor.
  void set_executor(Executor* executor) { executor_ = executor; }

  /// The executor component tasks run on: the attached one, or the
  /// inline SerialExecutor when none is attached.
  Executor& executor() {
    return executor_ != nullptr ? *executor_ : serial_;
  }

  /// Attaches the cancellation token (borrowed; nullptr detaches) that
  /// every solve and decompose checks at its iteration boundaries, and
  /// hands it to the attached executor so queued component tasks are
  /// skipped once it fires. Call after set_executor(). A cancelled solve
  /// throws util::SolveCancelled and returns no partial result; the next
  /// call re-solves every component.
  void set_cancel(util::CancelToken* token) {
    cancel_ = token;
    if (executor_ != nullptr) executor_->set_cancel(token);
  }
  util::CancelToken* cancel() const { return cancel_; }

  /// Binds from any edge-list source. Source must provide num_nodes(),
  /// num_edges(), edge_from(e), edge_to(e), capacity(e) and gain(e).
  /// Rebinds in place when the structure (node count + per-edge
  /// endpoints) matches the currently bound graph; rebuilds otherwise.
  /// Returns the bound graph.
  template <typename Source>
  const Graph& bind_from(const Source& src) {
    const NodeId n = src.num_nodes();
    const EdgeId m = src.num_edges();
    bool match = bound_ && graph_.num_nodes() == n && graph_.num_edges() == m;
    for (EdgeId e = 0; match && e < m; ++e) {
      const Edge& cur = graph_.edge(e);
      match = cur.from == src.edge_from(e) && cur.to == src.edge_to(e);
    }
    if (match) {
      for (EdgeId e = 0; e < m; ++e) {
        graph_.set_capacity(e, src.capacity(e));
        graph_.set_gain(e, src.gain(e));
      }
      ++stats_.rebinds;
      MUSK_OBS_COUNT("flow.graph.rebind_total", 1);
    } else {
      Graph g(n);
      for (EdgeId e = 0; e < m; ++e) {
        g.add_edge(src.edge_from(e), src.edge_to(e), src.capacity(e),
                   src.gain(e));
      }
      graph_ = std::move(g);
      bound_ = true;
      ++stats_.structure_builds;
      MUSK_OBS_COUNT("flow.graph.build_total", 1);
    }
    return graph_;
  }

  /// Runs solve_max_welfare on the bound graph, component by component
  /// through executor(). Bit-identical to a whole-graph solve.
  Circulation solve(SolverKind kind = SolverKind::kNetworkSimplex,
                    SolveStats* stats = nullptr);

  /// Sign-consistent decomposition of `f` on the bound graph through the
  /// pooled scratch. Always whole-graph: the peel order over global
  /// start nodes is part of the outcome's bit-identity.
  std::vector<CycleFlow> decompose(const Circulation& f);

  // --- Shard pool introspection (valid after a solve) -----------------

  /// True when the shard pool mirrors the bound graph: after a solve,
  /// until the next bind. The component accessors below require this.
  bool shards_ready() const {
    return shard_builds_mark_ == stats_.structure_builds &&
           shard_sync_mark_ == stats_.structure_builds + stats_.rebinds;
  }

  int num_components() const {
    MUSK_ASSERT_MSG(shards_ready(), "no current shard pool");
    return partitioner_.partition().num_components();
  }

  /// Component owning node `v`, or flow::kNoComponent.
  int component_of(NodeId v) const {
    MUSK_ASSERT_MSG(shards_ready(), "no current shard pool");
    return partitioner_.partition().component_of(v);
  }

  /// Component `c`'s subgraph: global node-id space, the component's
  /// edges in ascending global order.
  const Graph& component_graph(int c) const;

  /// Global edge ids of component `c` (ascending); component_graph(c)'s
  /// local edge i is global edge component_edges(c)[i].
  std::span<const EdgeId> component_edges(int c) const;

  /// Components the last solve partitioned into (0 before any solve or
  /// on an empty graph) and the largest component's edge count.
  int last_component_count() const { return last_components_; }
  EdgeId last_largest_component() const { return last_largest_component_; }

 private:
  /// One weakly-connected component's private solve state.
  struct ComponentSlot {
    Graph graph{0};             ///< global node space, component edges
    Workspace ws;
    std::vector<EdgeId> edges;  ///< local -> global edge id (ascending)
    Circulation flow;           ///< the last solve's local circulation
  };

  /// (Re)builds or refreshes the shard pool to mirror the bound graph.
  void ensure_shards();

  Graph graph_{0};
  DecomposeScratch dec_;
  ContextStats stats_;
  bool bound_ = false;
  util::CancelToken* cancel_ = nullptr;  ///< borrowed
  long long builds_at_last_solve_ = 0;

  Executor* executor_ = nullptr;  ///< borrowed
  SerialExecutor serial_;         ///< used when no executor is attached

  // --- Shard pool ------------------------------------------------------
  Partitioner partitioner_;
  std::vector<ComponentSlot> slots_;
  /// stats_.structure_builds value the pool's structure mirrors
  /// (post-build, since slot builds themselves count), or -1.
  long long shard_builds_mark_ = -1;
  /// stats_.structure_builds + stats_.rebinds value the pool's
  /// capacities/gains mirror, or -1.
  long long shard_sync_mark_ = -1;
  /// Per-solve scratch: each slot's solve stats.
  std::vector<SolveStats> slot_stats_;
  int last_components_ = 0;
  EdgeId last_largest_component_ = 0;
};

/// The calling thread's shared context. Backs the legacy (context-free)
/// mechanism entry points; never hand it to another thread.
SolveContext& local_context();

}  // namespace musketeer::flow
