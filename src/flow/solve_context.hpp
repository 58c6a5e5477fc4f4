// SolveContext: the zero-rebuild solve path.
//
// A SolveContext owns a flow::Graph plus one pooled solver Workspace and
// lets callers run many solves on one topology without re-allocating
// either. The contract:
//
//   * bind_from(source)   — if the source has the same structure as the
//     currently bound graph (node count and per-edge endpoints), only
//     capacities and gains are refreshed in place ("rebind", O(m), no
//     allocation); otherwise the graph is rebuilt ("structure build").
//   * solve(stats)        — solve_max_welfare on the bound graph through
//     the pooled workspace, with the network simplex: every mechanism
//     solves with it. stats().structure_builds counts the structure
//     builds (its delta across a solve is 0 on a warm rebind-only
//     path).
//
// Results are bit-identical to building a fresh Graph and calling
// solve_max_welfare on it: only buffers are reused, never algorithmic
// state.
//
// The context also carries the Executor that parallel work above it
// fans out through: M2 runs its exclusion solves as executor tasks
// (core/m2_vcg.cpp). With none attached, an inline SerialExecutor runs
// them in turn on the calling thread.
//
// Thread ownership: a SolveContext is single-threaded state, like the
// Workspace it embeds. One context per thread; the thread_local
// local_context() backs legacy entry points. See DESIGN.md §9 and §13.
#pragma once

#include <utility>
#include <vector>

#include "flow/decompose.hpp"
#include "flow/executor.hpp"
#include "flow/graph.hpp"
#include "flow/solver.hpp"
#include "flow/workspace.hpp"
#include "obs/obs.hpp"

namespace musketeer::flow {

/// Lifetime counters of one SolveContext.
struct ContextStats {
  /// Full Graph (re)constructions: binds on a new/changed structure.
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

  /// Attaches the executor tasks fan out through (borrowed; must outlive
  /// the context or be detached with nullptr). nullptr selects the
  /// context's inline SerialExecutor.
  void set_executor(Executor* executor) { executor_ = executor; }

  /// The executor tasks run on: the attached one, or the inline
  /// SerialExecutor when none is attached.
  Executor& executor() {
    return executor_ != nullptr ? *executor_ : serial_;
  }

  /// Attaches the cancellation token (borrowed; nullptr detaches) that
  /// every solve and decompose checks at its iteration boundaries, and
  /// hands it to the attached executor so queued tasks are skipped once
  /// it fires. Call after set_executor(). A cancelled solve throws
  /// util::SolveCancelled and returns no partial result; the next call
  /// solves from scratch.
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
      count_components();
    }
    return graph_;
  }

  /// Runs solve_max_welfare with the network simplex on the bound graph
  /// through the pooled workspace. Bit-identical to a solve on a fresh
  /// graph.
  Circulation solve(SolveStats* stats = nullptr);

  /// Sign-consistent decomposition of `f` on the bound graph through the
  /// pooled scratch.
  std::vector<CycleFlow> decompose(const Circulation& f);

  /// Weakly-connected components of the bound graph (0 before any bind,
  /// on an empty graph, or when every node is isolated). Capacity-0
  /// edges connect too. Counted once per structure build; a rebind keeps
  /// the structure, so the count stands. Nothing in the service reads
  /// it: it stays only for perfbench's replica, which reports it as
  /// flow.components, until a benchmark change drops that metric.
  int last_component_count() const { return components_; }

 private:
  /// Union–find over the bound graph's edges; sets the count above.
  void count_components();

  Graph graph_{0};
  Workspace ws_;
  ContextStats stats_;
  bool bound_ = false;
  util::CancelToken* cancel_ = nullptr;  ///< borrowed

  Executor* executor_ = nullptr;  ///< borrowed
  SerialExecutor serial_;         ///< used when no executor is attached

  int components_ = 0;
};

/// The calling thread's shared context. Backs the legacy (context-free)
/// mechanism entry points; never hand it to another thread.
SolveContext& local_context();

}  // namespace musketeer::flow
