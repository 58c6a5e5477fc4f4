#include "flow/network_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "flow/bellman_ford.hpp"
#include "flow/residual.hpp"
#include "util/assert.hpp"

namespace musketeer::flow {

namespace {

using SimplexArc = SimplexScratch::Arc;

// Arc states double as pricing signs (SimplexScratch::state).
constexpr signed char kUpper = -1;
constexpr signed char kTree = 0;
constexpr signed char kLower = 1;
// pred_dir: the tree arc points from the node up to its parent, or down.
constexpr signed char kUp = 1;
constexpr signed char kDown = -1;

// The basis, flows, tree index and potentials all live in the
// caller-provided SimplexScratch; this class is a view that
// (re)initializes them for one graph and runs pivots. The pivot follows
// LEMON's network simplex (Király & Kovács 2012): block-search pricing,
// the strongly feasible leaving rule, and the threaded tree update.
class NetworkSimplex {
 public:
  NetworkSimplex(const Graph& g, SimplexScratch& ws)
      : ws_(ws),
        num_real_(static_cast<std::size_t>(g.num_edges())),
        block_size_(std::max<std::size_t>(
            10, static_cast<std::size_t>(
                    std::ceil(std::sqrt(static_cast<double>(num_real_)))))) {
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    const NodeId root = g.num_nodes();
    auto& arcs = ws_.arcs;
    arcs.clear();
    arcs.reserve(num_real_ + n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      arcs.push_back(
          SimplexArc{edge.from, edge.to, edge.capacity, -g.scaled_gain(e)});
    }
    // Artificial arcs v -> root at cost 0 form the initial tree. Every
    // one points into the root, so with zero node balances they carry no
    // flow; pricing never scans them, and a cycle through the root is
    // degenerate.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      arcs.push_back(
          SimplexArc{v, root, std::numeric_limits<Amount>::max(), 0});
    }
    ws_.flow.assign(arcs.size(), 0);
    ws_.state.assign(arcs.size(), kLower);
    // The initial basis: every node a child of the root through its
    // artificial arc (strongly feasible: each can push a unit up), with
    // potential 0, threaded in node order.
    const std::size_t nodes = n + 1;
    ws_.pi.assign(nodes, 0);
    ws_.parent.assign(nodes, root);
    ws_.pred.resize(nodes);
    ws_.pred_dir.assign(nodes, kUp);
    ws_.thread.resize(nodes);
    ws_.rev_thread.resize(nodes);
    ws_.succ_num.assign(nodes, 1);
    ws_.last_succ.resize(nodes);
    for (std::size_t v = 0; v < nodes; ++v) {
      ws_.pred[v] = static_cast<int>(num_real_ + v);
      if (v < n) ws_.state[num_real_ + v] = kTree;
      const std::size_t next = (v + 1) % nodes;
      ws_.thread[v] = static_cast<NodeId>(next);
      ws_.rev_thread[next] = static_cast<NodeId>(v);
      ws_.last_succ[v] = static_cast<NodeId>(v);
    }
    ws_.parent[n] = -1;
    ws_.pred[n] = -1;
    ws_.succ_num[n] = static_cast<int>(nodes);
    ws_.last_succ[n] = ws_.rev_thread[n];
    ws_.dirty_revs.reserve(nodes);
#if defined(MUSKETEER_AUDIT)
    ws_.check_pos.reserve(nodes);
    ws_.check_size.reserve(nodes);
#endif
  }

  /// Runs pivots to optimality. Returns false if the pivot cap was hit
  /// (caller should fall back to a different solver).
  bool solve(SolveStats* stats, util::CancelToken* cancel) {
    const long long pivot_cap =
        256LL * static_cast<long long>(ws_.arcs.size()) + 4096;
    long long pivots = 0;
    for (;;) {
      MUSK_CANCEL_POINT(cancel);
      if (!find_entering()) return true;
      if (++pivots > pivot_cap) return false;
      find_join();
      const bool change = find_leaving();
      change_flow(change);
      if (change) {
        update_tree();
        update_potentials();
      }
#if defined(MUSKETEER_AUDIT)
      MUSK_ASSERT_MSG(simplex_basis_ok(ws_),
                      "audit: network simplex pivot broke its basis");
#endif
      if (stats != nullptr) ++stats->pivots;
    }
  }

  Circulation extract() const {
    Circulation f(num_real_);
    for (std::size_t a = 0; a < num_real_; ++a) f[a] = ws_.flow[a];
    return f;
  }

 private:
  static std::size_t at(NodeId v) { return static_cast<std::size_t>(v); }

  // Block search: scan blocks of block_size_ arcs, starting right after
  // the arc where the previous scan stopped, and take the most violating
  // arc of the first block that holds one. A full lap with no violating
  // arc proves the basis optimal. O(sqrt m) per pivot in the common case
  // instead of Dantzig's O(m).
  bool find_entering() {
    const auto& arcs = ws_.arcs;
    const auto& state = ws_.state;
    const auto& pi = ws_.pi;
    std::int64_t best = 0;
    std::size_t left = block_size_;
    std::size_t a = next_arc_;
    for (std::size_t scanned = 0; scanned < num_real_; ++scanned) {
      const SimplexArc& arc = arcs[a];
      const std::int64_t violation =
          state[a] * (arc.cost - pi[at(arc.from)] + pi[at(arc.to)]);
      if (violation < best) {
        best = violation;
        in_arc_ = a;
      }
      if (++a == num_real_) a = 0;
      if (--left == 0) {
        if (best < 0) break;
        left = block_size_;
      }
    }
    next_arc_ = a;
    return best < 0;
  }

  // The cycle's apex: climb from whichever side has the smaller subtree,
  // which cannot be an ancestor of the other.
  void find_join() {
    NodeId u = ws_.arcs[in_arc_].from;
    NodeId v = ws_.arcs[in_arc_].to;
    while (u != v) {
      if (ws_.succ_num[at(u)] < ws_.succ_num[at(v)]) {
        u = ws_.parent[at(u)];
      } else {
        v = ws_.parent[at(v)];
      }
    }
    join_ = u;
  }

  // The cycle runs first -> second along the entering arc (its push
  // direction), up from second to the join, and down from the join to
  // first. The leaving arc is the last blocking arc in that order from
  // the join, which keeps the tree strongly feasible (Cunningham 1976):
  // on the first side an arc replaces the choice only with strictly less
  // headroom, on the second side also with equal headroom. Returns false
  // when the entering arc itself blocks (a bound flip). Every second-side
  // arc can push at least one unit, so a capacity-0 arc only ever flips
  // and never enters the tree.
  bool find_leaving() {
    const auto& arcs = ws_.arcs;
    const auto& flow = ws_.flow;
    const SimplexArc& in = arcs[in_arc_];
    const bool from_lower = ws_.state[in_arc_] == kLower;
    const NodeId first = from_lower ? in.from : in.to;
    const NodeId second = from_lower ? in.to : in.from;
    delta_ = in.capacity;
    int side = 0;
    for (NodeId u = first; u != join_; u = ws_.parent[at(u)]) {
      const auto e = static_cast<std::size_t>(ws_.pred[at(u)]);
      const Amount headroom = ws_.pred_dir[at(u)] == kUp
                                  ? flow[e]
                                  : arcs[e].capacity - flow[e];
      if (headroom < delta_) {
        delta_ = headroom;
        u_out_ = u;
        side = 1;
      }
    }
    for (NodeId u = second; u != join_; u = ws_.parent[at(u)]) {
      const auto e = static_cast<std::size_t>(ws_.pred[at(u)]);
      const Amount headroom = ws_.pred_dir[at(u)] == kUp
                                  ? arcs[e].capacity - flow[e]
                                  : flow[e];
      if (headroom <= delta_) {
        delta_ = headroom;
        u_out_ = u;
        side = 2;
      }
    }
    // The leaving arc cuts off the subtree holding the entering arc's end
    // on its side; that end (u_in) is re-hung below the other (v_in).
    u_in_ = side == 1 ? first : second;
    v_in_ = side == 1 ? second : first;
    return side != 0;
  }

  // Pushes delta_ around the cycle and updates the entering and leaving
  // arcs' states.
  void change_flow(bool change) {
    auto& flow = ws_.flow;
    if (delta_ > 0) {
      const Amount push = ws_.state[in_arc_] * delta_;
      flow[in_arc_] += push;
      for (NodeId u = ws_.arcs[in_arc_].from; u != join_;
           u = ws_.parent[at(u)]) {
        flow[static_cast<std::size_t>(ws_.pred[at(u)])] -=
            ws_.pred_dir[at(u)] * push;
      }
      for (NodeId u = ws_.arcs[in_arc_].to; u != join_;
           u = ws_.parent[at(u)]) {
        flow[static_cast<std::size_t>(ws_.pred[at(u)])] +=
            ws_.pred_dir[at(u)] * push;
      }
    }
    if (change) {
      ws_.state[in_arc_] = kTree;
      const auto out = static_cast<std::size_t>(ws_.pred[at(u_out_)]);
      ws_.state[out] = flow[out] == 0 ? kLower : kUpper;
    } else {
      ws_.state[in_arc_] = static_cast<signed char>(-ws_.state[in_arc_]);
    }
  }

  // Replaces the leaving arc (u_out_'s tree arc) with the entering arc:
  // the cut-off subtree is re-rooted at u_in_ and spliced into the thread
  // right after v_in_. Reversing the stem (the path u_in_ .. u_out_)
  // re-threads each stem node's remaining subtree behind the previous
  // one; then subtree sizes and last successors are fixed along the
  // stem and on both paths up to the join. LEMON's updateTreeStructure.
  void update_tree() {
    auto& parent = ws_.parent;
    auto& thread = ws_.thread;
    auto& rev_thread = ws_.rev_thread;
    auto& succ_num = ws_.succ_num;
    auto& last_succ = ws_.last_succ;
    const NodeId old_rev_thread = rev_thread[at(u_out_)];
    const int old_succ_num = succ_num[at(u_out_)];
    const NodeId old_last_succ = last_succ[at(u_out_)];
    const NodeId v_out = parent[at(u_out_)];
    const auto in_dir = static_cast<signed char>(
        u_in_ == ws_.arcs[in_arc_].from ? kUp : kDown);

    if (u_in_ == u_out_) {
      // The subtree moves whole: re-hang it and move its thread range.
      parent[at(u_in_)] = v_in_;
      ws_.pred[at(u_in_)] = static_cast<int>(in_arc_);
      ws_.pred_dir[at(u_in_)] = in_dir;
      if (thread[at(v_in_)] != u_out_) {
        NodeId after = thread[at(old_last_succ)];
        thread[at(old_rev_thread)] = after;
        rev_thread[at(after)] = old_rev_thread;
        after = thread[at(v_in_)];
        thread[at(v_in_)] = u_out_;
        rev_thread[at(u_out_)] = v_in_;
        thread[at(old_last_succ)] = after;
        rev_thread[at(after)] = old_last_succ;
      }
    } else {
      // Where the moved range's end reconnects: after v_in_, unless the
      // range already follows v_in_ (then v_out is the join).
      const NodeId thread_continue = old_rev_thread == v_in_
                                         ? thread[at(old_last_succ)]
                                         : thread[at(v_in_)];
      // Walk the stem from u_in_ up to u_out_: thread each stem node's
      // remaining range behind the previous one, cut it out of its old
      // place, and reverse its parent link.
      NodeId stem = u_in_;
      NodeId par_stem = v_in_;
      NodeId last = last_succ[at(u_in_)];
      NodeId after = thread[at(last)];
      thread[at(v_in_)] = u_in_;
      ws_.dirty_revs.clear();
      ws_.dirty_revs.push_back(v_in_);
      while (stem != u_out_) {
        const NodeId next_stem = parent[at(stem)];
        thread[at(last)] = next_stem;
        ws_.dirty_revs.push_back(last);
        const NodeId before = rev_thread[at(stem)];
        thread[at(before)] = after;
        rev_thread[at(after)] = before;
        parent[at(stem)] = par_stem;
        par_stem = stem;
        stem = next_stem;
        // The next stem node's remaining range ends before the range
        // just moved if that range closed it, else at its last_succ.
        last = last_succ[at(stem)] == last_succ[at(par_stem)]
                   ? rev_thread[at(par_stem)]
                   : last_succ[at(stem)];
        after = thread[at(last)];
      }
      parent[at(u_out_)] = par_stem;
      thread[at(last)] = thread_continue;
      rev_thread[at(thread_continue)] = last;
      last_succ[at(u_out_)] = last;
      if (old_rev_thread != v_in_) {
        thread[at(old_rev_thread)] = after;
        rev_thread[at(after)] = old_rev_thread;
      }
      for (const NodeId u : ws_.dirty_revs) rev_thread[at(thread[at(u)])] = u;

      // Down the reversed stem from u_out_: each node takes its new
      // child's old tree arc, flipped, and its size becomes its old size
      // minus that child's, accumulated from the bottom.
      int sizes = 0;
      const NodeId stem_last = last_succ[at(u_out_)];
      for (NodeId u = u_out_, p = parent[at(u)]; u != u_in_;
           u = p, p = parent[at(u)]) {
        ws_.pred[at(u)] = ws_.pred[at(p)];
        ws_.pred_dir[at(u)] = static_cast<signed char>(-ws_.pred_dir[at(p)]);
        sizes += succ_num[at(u)] - succ_num[at(p)];
        succ_num[at(u)] = sizes;
        last_succ[at(p)] = stem_last;
      }
      ws_.pred[at(u_in_)] = static_cast<int>(in_arc_);
      ws_.pred_dir[at(u_in_)] = in_dir;
      succ_num[at(u_in_)] = old_succ_num;
    }

    // Ancestors of v_in_ whose range ended at v_in_ now end where the
    // moved range does.
    const NodeId up_limit_out = last_succ[at(join_)] == v_in_ ? join_ : -1;
    const NodeId last_succ_out = last_succ[at(u_out_)];
    for (NodeId u = v_in_; u != -1 && last_succ[at(u)] == v_in_;
         u = parent[at(u)]) {
      last_succ[at(u)] = last_succ_out;
    }
    // Ancestors of v_out whose range ended with the moved range now end
    // just before it, or at its new end where it stayed in place.
    const NodeId v_out_last =
        join_ != old_rev_thread && v_in_ != old_rev_thread ? old_rev_thread
                                                           : last_succ_out;
    for (NodeId u = v_out;
         u != up_limit_out && last_succ[at(u)] == old_last_succ;
         u = parent[at(u)]) {
      last_succ[at(u)] = v_out_last;
    }
    for (NodeId u = v_in_; u != join_; u = parent[at(u)]) {
      succ_num[at(u)] += old_succ_num;
    }
    for (NodeId u = v_out; u != join_; u = parent[at(u)]) {
      succ_num[at(u)] -= old_succ_num;
    }
  }

  // The moved subtree's potentials all shift by one constant, which
  // gives the entering arc zero reduced cost: c - pi(from) + pi(to) = 0.
  void update_potentials() {
    auto& pi = ws_.pi;
    const SimplexArc& in = ws_.arcs[in_arc_];
    const std::int64_t want = ws_.pred_dir[at(u_in_)] == kUp
                                  ? pi[at(v_in_)] + in.cost
                                  : pi[at(v_in_)] - in.cost;
    const std::int64_t sigma = want - pi[at(u_in_)];
    const NodeId end = ws_.thread[at(ws_.last_succ[at(u_in_)])];
    for (NodeId u = u_in_; u != end; u = ws_.thread[at(u)]) pi[at(u)] += sigma;
  }

  SimplexScratch& ws_;
  std::size_t num_real_;
  std::size_t block_size_;
  /// Where the next block search starts; 0 at the start of every solve,
  /// so a result never depends on the workspace's history.
  std::size_t next_arc_ = 0;
  // The current pivot.
  std::size_t in_arc_ = 0;
  NodeId join_ = 0;
  NodeId u_in_ = 0;
  NodeId v_in_ = 0;
  NodeId u_out_ = 0;
  Amount delta_ = 0;
};

}  // namespace

bool simplex_basis_ok(SimplexScratch& ws) {
  const std::size_t nodes = ws.parent.size();
  if (nodes == 0) return false;
  const auto root = static_cast<NodeId>(nodes - 1);
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };
  const auto valid = [nodes](NodeId v) {
    return v >= 0 && static_cast<std::size_t>(v) < nodes;
  };
  if (ws.thread.size() != nodes || ws.rev_thread.size() != nodes ||
      ws.last_succ.size() != nodes || ws.pred.size() != nodes ||
      ws.pred_dir.size() != nodes || ws.succ_num.size() != nodes ||
      ws.pi.size() != nodes || ws.state.size() != ws.arcs.size() ||
      ws.flow.size() != ws.arcs.size()) {
    return false;
  }
  // The thread is one cycle through every node from the root, and
  // rev_thread is its inverse; pos is each node's place on it.
  std::vector<std::size_t>& pos = ws.check_pos;
  pos.assign(nodes, nodes);
  NodeId v = root;
  for (std::size_t i = 0; i < nodes; ++i) {
    if (!valid(v) || pos[at(v)] != nodes) return false;
    pos[at(v)] = i;
    const NodeId next = ws.thread[at(v)];
    if (!valid(next) || ws.rev_thread[at(next)] != v) return false;
    v = next;
  }
  if (v != root || ws.parent[at(root)] != -1 || ws.pred[at(root)] != -1) {
    return false;
  }
  // Parents precede children on the thread, so the parent links form a
  // tree; subtree sizes follow in reverse thread order.
  std::vector<int>& size = ws.check_size;
  size.assign(nodes, 1);
  for (NodeId u = ws.rev_thread[at(root)]; u != root;
       u = ws.rev_thread[at(u)]) {
    const NodeId p = ws.parent[at(u)];
    if (!valid(p) || pos[at(p)] >= pos[at(u)]) return false;
    size[at(p)] += size[at(u)];
  }
  for (std::size_t u = 0; u < nodes; ++u) {
    // succ_num is the subtree size, last_succ the end of its thread
    // range, and the range nests inside the parent's; with the sizes
    // right, that makes each range exactly the node's subtree.
    const int count = ws.succ_num[u];
    if (count != size[u]) return false;
    const std::size_t end = pos[u] + static_cast<std::size_t>(count) - 1;
    const NodeId last = ws.last_succ[u];
    if (end >= nodes || !valid(last) || pos[at(last)] != end) return false;
    if (u == at(root)) continue;
    const NodeId p = ws.parent[u];
    if (end > pos[at(p)] + static_cast<std::size_t>(ws.succ_num[at(p)]) - 1) {
      return false;
    }
    // The tree arc is in tree state, joins the node to its parent in
    // the direction pred_dir says, prices at zero, and can push one unit
    // from child to parent (a strongly feasible tree).
    const auto a = static_cast<std::size_t>(ws.pred[u]);
    if (ws.pred[u] < 0 || a >= ws.arcs.size()) return false;
    const SimplexScratch::Arc& arc = ws.arcs[a];
    if (ws.state[a] != kTree) return false;
    const bool up = ws.pred_dir[u] == kUp;
    if (!up && ws.pred_dir[u] != kDown) return false;
    const NodeId child = up ? arc.from : arc.to;
    const NodeId above = up ? arc.to : arc.from;
    if (at(child) != u || above != p) return false;
    if (arc.cost - ws.pi[at(arc.from)] + ws.pi[at(arc.to)] != 0) return false;
    if (up ? ws.flow[a] >= arc.capacity : ws.flow[a] <= 0) return false;
  }
  return true;
}

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
  const bool gaining_cycle =
      find_negative_cycle(g.num_nodes(), ws.arcs, ws.bf).has_value();
  if (stats != nullptr) stats->bf_passes += ws.bf.passes;
  if (!gaining_cycle) {
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
