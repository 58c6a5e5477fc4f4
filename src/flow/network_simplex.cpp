#include "flow/network_simplex.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "flow/bellman_ford.hpp"
#include "flow/residual.hpp"
#include "util/assert.hpp"

namespace musketeer::flow {

namespace {

enum class ArcState : signed char { kTree, kLower, kUpper };

using SimplexArc = SimplexScratch::Arc;
using Step = SimplexScratch::Step;

// The basis, flows, tree and potentials all live in the caller-provided
// SimplexScratch; this class is a view that (re)initializes them for one
// graph and runs pivots.
class NetworkSimplex {
 public:
  NetworkSimplex(const Graph& g, SimplexScratch& ws)
      : ws_(ws),
        num_real_(static_cast<std::size_t>(g.num_edges())),
        root_(g.num_nodes()) {
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    std::int64_t max_cost = 1;
    Amount cap_sum = 1;
    auto& arcs = ws_.arcs;
    arcs.clear();
    arcs.reserve(num_real_ + n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      arcs.push_back(
          SimplexArc{edge.from, edge.to, edge.capacity, -g.scaled_gain(e)});
      max_cost = std::max(max_cost, std::abs(arcs.back().cost));
      cap_sum += edge.capacity;
    }
    // Artificial arcs v -> root with prohibitive cost; with zero node
    // balances they never carry flow (every root cycle is degenerate),
    // but they provide the initial spanning tree.
    const std::int64_t big_m =
        (static_cast<std::int64_t>(n) + 2) * (max_cost + 1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      arcs.push_back(SimplexArc{v, root_, cap_sum, big_m});
    }
    ws_.flow.assign(arcs.size(), 0);
    ws_.state.assign(arcs.size(), static_cast<signed char>(ArcState::kLower));
    // The initial basis: every node a child of the root through its
    // artificial arc, so its potential is big-M (zero reduced cost on
    // v -> root with pi(root) = 0). The root's own tree adjacency is
    // never walked (a cut-off subtree never holds the root), so it is
    // not kept.
    const std::size_t nodes = n + 1;
    ws_.parent_arc.assign(nodes, -1);
    ws_.depth.assign(nodes, 1);
    ws_.pi.assign(nodes, big_m);
    ws_.depth[n] = 0;
    ws_.pi[n] = 0;
    if (ws_.adjacency.size() < n) ws_.adjacency.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t a = num_real_ + v;
      ws_.state[a] = static_cast<signed char>(ArcState::kTree);
      ws_.parent_arc[v] = static_cast<int>(a);
      ws_.adjacency[v].clear();
      ws_.adjacency[v].push_back(a);
    }
  }

  /// Runs pivots to optimality. Returns false if the pivot cap was hit
  /// (caller should fall back to a different solver).
  bool solve(SolveStats* stats, util::CancelToken* cancel) {
    const long long bland_threshold =
        16LL * static_cast<long long>(ws_.arcs.size()) + 256;
    const long long pivot_cap =
        256LL * static_cast<long long>(ws_.arcs.size()) + 4096;
    long long pivots = 0;
    for (;;) {
      MUSK_CANCEL_POINT(cancel);
      const bool bland = pivots > bland_threshold;
      const int entering = find_entering(bland);
      if (entering < 0) return true;
      if (++pivots > pivot_cap) return false;
      pivot(static_cast<std::size_t>(entering), bland);
      if (stats != nullptr) ++stats->pivots;
    }
  }

  Circulation extract() const {
    Circulation f(num_real_);
    for (std::size_t a = 0; a < num_real_; ++a) f[a] = ws_.flow[a];
    return f;
  }

 private:
  ArcState state(std::size_t a) const {
    return static_cast<ArcState>(ws_.state[a]);
  }

  void set_state(std::size_t a, ArcState s) {
    ws_.state[a] = static_cast<signed char>(s);
  }

  std::int64_t reduced_cost(std::size_t a) const {
    return ws_.arcs[a].cost - ws_.pi[static_cast<std::size_t>(ws_.arcs[a].from)] +
           ws_.pi[static_cast<std::size_t>(ws_.arcs[a].to)];
  }

  // Entering rule: Dantzig (most violating) or Bland (first violating).
  int find_entering(bool bland) const {
    int best = -1;
    std::int64_t best_violation = 0;
    for (std::size_t a = 0; a < ws_.arcs.size(); ++a) {
      if (state(a) == ArcState::kTree) continue;
      const std::int64_t red = reduced_cost(a);
      std::int64_t violation = 0;
      if (state(a) == ArcState::kLower && red < 0) violation = -red;
      if (state(a) == ArcState::kUpper && red > 0) violation = red;
      if (violation == 0) continue;
      if (bland) return static_cast<int>(a);
      if (violation > best_violation) {
        best_violation = violation;
        best = static_cast<int>(a);
      }
    }
    return best;
  }

  // One pivot: push along the tree cycle closed by `entering`, kick out
  // the blocking arc (or bound-flip the entering arc itself).
  void pivot(std::size_t entering, bool bland) {
    auto& arcs = ws_.arcs;
    auto& flow = ws_.flow;
    // Conceptual push direction: along the arc when entering from its
    // lower bound, against it when entering from the upper bound.
    const bool from_lower = state(entering) == ArcState::kLower;
    const NodeId source = from_lower ? arcs[entering].from
                                     : arcs[entering].to;
    const NodeId target = from_lower ? arcs[entering].to
                                     : arcs[entering].from;

    // The cycle is: entering (source->target conceptually), then the
    // tree path target -> ... -> source. Collect the path arcs with
    // their traversal orientation.
    std::vector<Step>& path = ws_.path;
    {
      NodeId x = target, y = source;
      // Climb to equal depth, then in lockstep to the LCA. Record x-side
      // steps in order, y-side steps reversed at the end.
      std::vector<Step>& from_target = ws_.from_target;
      std::vector<Step>& from_source = ws_.from_source;
      from_target.clear();
      from_source.clear();
      auto step_up = [&](NodeId& v, std::vector<Step>& out, bool upward) {
        const std::size_t a = static_cast<std::size_t>(
            ws_.parent_arc[static_cast<std::size_t>(v)]);
        // Traversal v -> parent: forward iff the arc points v -> parent.
        const bool arc_points_up = arcs[a].from == v;
        // For the target side we walk with the cycle (v toward root);
        // for the source side we will traverse the arcs in the opposite
        // direction (root toward v), flipping the orientation.
        out.push_back(Step{a, upward ? arc_points_up : !arc_points_up});
        v = arcs[a].from == v ? arcs[a].to : arcs[a].from;
      };
      while (ws_.depth[static_cast<std::size_t>(x)] >
             ws_.depth[static_cast<std::size_t>(y)]) {
        step_up(x, from_target, true);
      }
      while (ws_.depth[static_cast<std::size_t>(y)] >
             ws_.depth[static_cast<std::size_t>(x)]) {
        step_up(y, from_source, false);
      }
      while (x != y) {
        step_up(x, from_target, true);
        step_up(y, from_source, false);
      }
      path.clear();
      path.insert(path.end(), from_target.begin(), from_target.end());
      path.insert(path.end(), from_source.rbegin(), from_source.rend());
    }

    // Headroom of the entering arc itself (a possible bound flip).
    Amount delta = from_lower ? arcs[entering].capacity - flow[entering]
                              : flow[entering];
    std::size_t leaving = entering;
    bool leaving_at_upper = from_lower;  // where the entering arc would land
    std::size_t leaving_step = path.size();
    for (std::size_t i = 0; i < path.size(); ++i) {
      const Step& step = path[i];
      const Amount headroom = step.forward
                                  ? arcs[step.arc].capacity - flow[step.arc]
                                  : flow[step.arc];
      // Strictly smaller headroom always wins; on ties Bland's rule picks
      // the lowest arc index among the blocking arcs (anti-cycling).
      const bool take = headroom < delta ||
                        (bland && headroom == delta && step.arc < leaving);
      if (take) {
        delta = headroom;
        leaving = step.arc;
        leaving_at_upper = step.forward;  // saturates at capacity if forward
        leaving_step = i;
      }
    }

    // Apply the push.
    if (delta > 0) {
      flow[entering] += from_lower ? delta : -delta;
      for (const Step& step : path) {
        flow[step.arc] += step.forward ? delta : -delta;
      }
    }

    if (leaving == entering) {
      // Bound flip: the entering arc traversed to its other bound.
      set_state(entering, from_lower ? ArcState::kUpper : ArcState::kLower);
      return;
    }
    set_state(entering, ArcState::kTree);
    set_state(leaving,
              leaving_at_upper ? ArcState::kUpper : ArcState::kLower);
    MUSK_ASSERT(flow[leaving] == 0 ||
                flow[leaving] == arcs[leaving].capacity);
    // The leaving arc cuts off the subtree below it, which holds the end
    // of the entering arc on the leaving arc's side of the cycle: the
    // target on the target-to-LCA half of the path, else the source.
    const bool target_side = leaving_step < ws_.from_target.size();
    detach(leaving);
    attach(entering);
    rehang(target_side ? target : source, entering,
           target_side ? source : target);
  }

  void attach(std::size_t a) {
    for (const NodeId v : {ws_.arcs[a].from, ws_.arcs[a].to}) {
      if (v != root_) ws_.adjacency[static_cast<std::size_t>(v)].push_back(a);
    }
  }

  void detach(std::size_t a) {
    for (const NodeId v : {ws_.arcs[a].from, ws_.arcs[a].to}) {
      if (v == root_) continue;
      std::vector<std::size_t>& list =
          ws_.adjacency[static_cast<std::size_t>(v)];
      const auto it = std::find(list.begin(), list.end(), a);
      MUSK_ASSERT_MSG(it != list.end(), "leaving arc missing from the tree");
      *it = list.back();
      list.pop_back();
    }
  }

  // Makes tree arc `a` the parent arc of `w` below `v`; a tree arc has
  // zero reduced cost, c - pi_from + pi_to = 0, which fixes pi(w).
  void hang(NodeId w, std::size_t a, NodeId v) {
    const std::size_t wi = static_cast<std::size_t>(w);
    const std::size_t vi = static_cast<std::size_t>(v);
    ws_.parent_arc[wi] = static_cast<int>(a);
    ws_.depth[wi] = ws_.depth[vi] + 1;
    ws_.pi[wi] = ws_.arcs[a].from == w ? ws_.arcs[a].cost + ws_.pi[vi]
                                       : ws_.pi[vi] - ws_.arcs[a].cost;
  }

  // Re-roots the cut-off subtree at `inner`, hung below `outer` through
  // the entering arc, and recomputes parent arcs, depths and potentials
  // in that subtree only: O(subtree + its tree arcs), not O(n + m). A
  // spanning tree rooted at the root has exactly one set of these, so
  // they equal a full rebuild's and the pivot sequence is unchanged.
  void rehang(NodeId inner, std::size_t entering, NodeId outer) {
    hang(inner, entering, outer);
    std::vector<NodeId>& queue = ws_.subtree;
    queue.clear();
    queue.push_back(inner);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      const std::size_t up = static_cast<std::size_t>(
          ws_.parent_arc[static_cast<std::size_t>(v)]);
      for (const std::size_t a : ws_.adjacency[static_cast<std::size_t>(v)]) {
        if (a == up) continue;
        const NodeId w =
            ws_.arcs[a].from == v ? ws_.arcs[a].to : ws_.arcs[a].from;
        hang(w, a, v);
        queue.push_back(w);
      }
    }
  }

  SimplexScratch& ws_;
  std::size_t num_real_;
  NodeId root_;
};

}  // namespace

Circulation solve_network_simplex(const Graph& g, Workspace& ws,
                                  SolveStats* stats,
                                  util::CancelToken* cancel) {
  // Zero-flow certificate: one Bellman–Ford run on the zero
  // circulation's residual. A settled network has positive-gain arcs but
  // no positive-welfare cycle; the simplex would pivot every such arc in
  // degenerately before proving what this run proves.
  MUSK_CANCEL_POINT(cancel);
  Circulation f = zero_circulation(g);
  build_residual(g, f, ws.arcs);
  if (!find_negative_cycle(g.num_nodes(), ws.arcs, ws.bf).has_value()) {
    if (stats != nullptr) ++stats->zero_flow_certified;
    return f;
  }
  NetworkSimplex simplex(g, ws.ns);
  if (!simplex.solve(stats, cancel)) {
    // Degenerate pivoting hit the cap: fall back to the proven canceller
    // rather than risk a stale answer. Surface the event so benchmarks
    // and callers can see that the reported timings include a fallback.
    if (stats != nullptr) ++stats->fallbacks;
    return solve_max_welfare(g, ws, SolverKind::kBellmanFord, stats, cancel);
  }
  f = simplex.extract();
  MUSK_ASSERT_MSG(is_feasible(g, f),
                  "network simplex produced an infeasible circulation");
  MUSK_ASSERT_MSG(verify_dual(g, f, ws.ns.pi),
                  "network simplex potentials do not certify its "
                  "circulation optimal");
#if defined(MUSKETEER_AUDIT)
  // Audit hook: a spanning basis with no violating reduced cost must be
  // optimal — re-certify with the independent residual-cycle test.
  MUSK_ASSERT_MSG(is_optimal(g, f),
                  "audit: network simplex basis optimality disagrees with "
                  "the residual-cycle certificate");
#endif
  return f;
}

}  // namespace musketeer::flow
