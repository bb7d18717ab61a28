#pragma once
// Shared helpers for the test suite: tiny canonical networks, an
// INDEPENDENT max-flow oracle (Edmonds–Karp, a second solver next to the
// library's Dinic), a brute-force reliability oracle built on it (coded
// differently from src/reliability/naive.cpp on purpose), the paper's
// one-solve-per-question side array, a copied-network oracle for
// NetworkView, and float comparison tolerances.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "streamrel/core/side_array.hpp"
#include "streamrel/cuts/cut_enumeration.hpp"
#include "streamrel/graph/flow_network.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/bitops.hpp"
#include "streamrel/util/config_prob.hpp"

namespace streamrel::testing {

inline constexpr double kTol = 1e-9;

/// Edmonds–Karp: shortest augmenting paths by BFS, O(V E^2). The test
/// oracle that Dinic is checked against — simple enough to verify by
/// reading, and sharing nothing with DinicSolver but ResidualGraph.
/// Stops once the flow reaches `limit` (kUnbounded for a true maximum).
inline Capacity edmonds_karp(ResidualGraph& g, NodeId s, NodeId t,
                             Capacity limit = kUnbounded) {
  const Capacity target =
      limit == kUnbounded ? std::numeric_limits<Capacity>::max() : limit;
  std::vector<std::int32_t> parent_arc;
  std::vector<NodeId> queue;
  Capacity flow = 0;
  while (flow < target) {
    parent_arc.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    queue.assign(1, s);
    bool reached = false;
    for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
      for (std::int32_t ai : g.out_arcs(queue[head])) {
        const ResidualArc& a = g.arc(ai);
        if (a.cap <= 0 || a.to == s ||
            parent_arc[static_cast<std::size_t>(a.to)] != -1) {
          continue;
        }
        parent_arc[static_cast<std::size_t>(a.to)] = ai;
        if (a.to == t) {
          reached = true;
          break;
        }
        queue.push_back(a.to);
      }
    }
    if (!reached) break;

    // Bottleneck along the parent chain, capped at the remaining target.
    Capacity push = target - flow;
    for (NodeId n = t; n != s;) {
      const ResidualArc& a = g.arc(parent_arc[static_cast<std::size_t>(n)]);
      if (a.cap < push) push = a.cap;
      n = g.arc(a.rev).to;
    }
    for (NodeId n = t; n != s;) {
      const std::int32_t ai = parent_arc[static_cast<std::size_t>(n)];
      g.push(ai, push);
      n = g.arc(g.arc(ai).rev).to;
    }
    flow += push;
  }
  return flow;
}

/// Oracle max-flow value on the full network.
inline Capacity oracle_max_flow(const FlowNetwork& net, NodeId s, NodeId t,
                                Capacity limit = kUnbounded) {
  ResidualGraph g = ResidualGraph::from_network_all(net);
  return edmonds_karp(g, s, t, limit);
}

/// Oracle max-flow value when only `alive` edges exist.
inline Capacity oracle_max_flow_masked(const FlowNetwork& net, Mask alive,
                                       NodeId s, NodeId t,
                                       Capacity limit = kUnbounded) {
  ResidualGraph g = ResidualGraph::from_network(net, alive);
  return edmonds_karp(g, s, t, limit);
}

/// Brute-force reliability: direct sum over all alive masks using the
/// Edmonds–Karp oracle (different solver and code path from the
/// ConfigResidual-based algorithms under test).
inline double brute_force_reliability(const FlowNetwork& net,
                                      const FlowDemand& demand) {
  const Mask total = Mask{1} << net.num_edges();
  const std::vector<double> probs = net.failure_probs();
  double sum = 0.0;
  for (Mask alive = 0; alive < total; ++alive) {
    if (oracle_max_flow_masked(net, alive, demand.source, demand.sink) >=
        demand.rate) {
      sum += config_probability(probs, alive);
    }
  }
  return sum;
}

/// The paper's side array (§III-C) built the way the paper states it:
/// one bounded max-flow per (configuration, assignment), through the
/// production point evaluator. The oracle build_side_array must match.
inline std::vector<Mask> oracle_side_array(const SideProblem& side,
                                           const AssignmentSet& assignments,
                                           Capacity demand_rate,
                                           std::uint64_t* maxflow_calls =
                                               nullptr) {
  SideMaskEvaluator eval(side, assignments, demand_rate);
  std::vector<Mask> array(std::size_t{1} << side.view.num_edges());
  for (Mask c = 0; c < array.size(); ++c) array[c] = eval.realized(c);
  if (maxflow_calls) *maxflow_calls += eval.maxflow_calls();
  return array;
}

/// Size of a side array's boundary, summed over assignments: for each
/// assignment bit j, the configurations that realize j while no
/// configuration one link smaller does (minimal realizing), plus those
/// that fail j while every configuration one link larger realizes it
/// (maximal failing). Feasibility is monotone in the alive set, so the
/// boundary fixes the array.
inline std::uint64_t side_array_boundary(const std::vector<Mask>& array,
                                         int num_links, int num_assignments) {
  const Mask all = full_mask(num_assignments);
  std::uint64_t boundary = 0;
  for (Mask c = 0; c < array.size(); ++c) {
    Mask below = 0;   // realized by some one-link-smaller configuration
    Mask above = all; // realized by every one-link-larger configuration
    for (int e = 0; e < num_links; ++e) {
      const Mask n = array[static_cast<std::size_t>(c ^ bit(e))];
      if (test_bit(c, e)) {
        below |= n;
      } else {
        above &= n;
      }
    }
    const Mask here = array[static_cast<std::size_t>(c)];
    boundary += static_cast<std::uint64_t>(popcount(here & ~below) +
                                           popcount(all & ~here & above));
  }
  return boundary;
}

/// Directed copy of a planted two-cluster network in which every path
/// runs S -> T: source-side links point away from the source, sink-side
/// links toward the sink (by BFS depth inside each cluster), crossing
/// links S -> T. Edge ids and order are kept. With no T -> S arc across
/// the planted cut, kAuto resolves forward-only there.
inline GeneratedNetwork orient_along_planted_cut(const GeneratedNetwork& g) {
  const auto in_s = [&](NodeId n) {
    return static_cast<bool>(g.side_s[static_cast<std::size_t>(n)]);
  };
  const auto depth_from = [&](NodeId root) {
    std::vector<int> depth(static_cast<std::size_t>(g.net.num_nodes()), -1);
    std::vector<NodeId> queue{root};
    depth[static_cast<std::size_t>(root)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (EdgeId id : g.net.incident_edges(queue[head])) {
        const NodeId next = g.net.edge(id).other(queue[head]);
        if (in_s(next) != in_s(root) ||
            depth[static_cast<std::size_t>(next)] != -1) {
          continue;
        }
        depth[static_cast<std::size_t>(next)] =
            depth[static_cast<std::size_t>(queue[head])] + 1;
        queue.push_back(next);
      }
    }
    return depth;
  };
  const std::vector<int> from_s = depth_from(g.source);
  const std::vector<int> to_t = depth_from(g.sink);
  GeneratedNetwork out = g;
  out.net = FlowNetwork(g.net.num_nodes());
  for (const Edge& e : g.net.edges()) {
    const auto du = static_cast<std::size_t>(e.u);
    const auto dv = static_cast<std::size_t>(e.v);
    const bool along =
        in_s(e.u) != in_s(e.v)
            ? in_s(e.u)
            : (in_s(e.u) ? from_s[du] <= from_s[dv] : to_t[du] >= to_t[dv]);
    out.net.add_directed_edge(along ? e.u : e.v, along ? e.v : e.u,
                              e.capacity, e.failure_prob);
  }
  return out;
}

/// Reference minimality test: `cut` disconnects s from t and no cut with
/// one edge dropped does (one removal_disconnects BFS per edge).
inline bool reference_is_minimal_cutset(const FlowNetwork& net, NodeId s,
                                        NodeId t,
                                        const std::vector<EdgeId>& cut) {
  if (!removal_disconnects(net, s, t, cut)) return false;
  for (std::size_t skip = 0; skip < cut.size(); ++skip) {
    std::vector<EdgeId> sub;
    for (std::size_t i = 0; i < cut.size(); ++i) {
      if (i != skip) sub.push_back(cut[i]);
    }
    if (removal_disconnects(net, s, t, sub)) return false;
  }
  return true;
}

/// Exhaustive minimal-cut oracle for enumerate_minimal_cutsets: tests
/// every edge subset of size lower..max_size for minimality, where
/// lower is the min-cardinality cut value, in Gosper (colex) order, and
/// stops once `max_subsets` subsets were examined or max_results cuts
/// were found. Requires net.fits_mask().
inline std::vector<std::vector<EdgeId>> exhaustive_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options,
    std::uint64_t max_subsets = 5'000'000) {
  std::vector<std::vector<EdgeId>> out;
  const auto lower = static_cast<int>(min_cardinality_cut(net, s, t).value);
  if (lower == 0) return out;  // already disconnected: no cut is minimal
  std::uint64_t examined = 0;
  for (int k = lower; k <= options.max_size; ++k) {
    for (CombinationRange combos(net.num_edges(), k); !combos.done();
         combos.next()) {
      if (++examined > max_subsets || out.size() >= options.max_results) {
        return out;
      }
      const std::vector<int> ids = bits_of(combos.value());
      std::vector<EdgeId> cut(ids.begin(), ids.end());
      if (reference_is_minimal_cutset(net, s, t, cut)) {
        out.push_back(std::move(cut));
      }
    }
  }
  return out;
}

/// Copied-network oracle for NetworkView: the subnetwork induced by the
/// nodes with `in_side[n]`, materialized as its own FlowNetwork (edges
/// with both endpoints inside, attributes kept), numbered densely in
/// original id order, with the id maps both ways.
struct CopiedSide {
  FlowNetwork net;
  std::vector<NodeId> node_map;     ///< copy node id -> original node id
  std::vector<EdgeId> edge_map;     ///< copy edge id -> original edge id
  std::vector<NodeId> node_to_sub;  ///< original node -> copy or kInvalidNode
  std::vector<EdgeId> edge_to_sub;  ///< original edge -> copy or kInvalidEdge
};

inline CopiedSide copy_side(const FlowNetwork& net,
                            const std::vector<bool>& in_side) {
  CopiedSide sub;
  sub.node_to_sub.assign(in_side.size(), kInvalidNode);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    if (in_side[static_cast<std::size_t>(n)]) {
      sub.node_to_sub[static_cast<std::size_t>(n)] = sub.net.add_node();
      sub.node_map.push_back(n);
    }
  }
  sub.edge_to_sub.assign(static_cast<std::size_t>(net.num_edges()),
                         kInvalidEdge);
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    const Edge& e = net.edge(id);
    const NodeId su = sub.node_to_sub[static_cast<std::size_t>(e.u)];
    const NodeId sv = sub.node_to_sub[static_cast<std::size_t>(e.v)];
    if (su == kInvalidNode || sv == kInvalidNode) continue;
    sub.edge_to_sub[static_cast<std::size_t>(id)] =
        sub.net.add_edge(su, sv, e.capacity, e.failure_prob, e.kind);
    sub.edge_map.push_back(id);
  }
  return sub;
}

/// An alive mask over the original edges, in the copy's numbering.
inline Mask copied_project_mask(const CopiedSide& sub, Mask original_alive) {
  Mask out = 0;
  for (std::size_t sid = 0; sid < sub.edge_map.size(); ++sid) {
    if (test_bit(original_alive, sub.edge_map[sid])) {
      out |= bit(static_cast<int>(sid));
    }
  }
  return out;
}

/// An alive mask over the copy's edges, in the original numbering.
inline Mask copied_lift_mask(const CopiedSide& sub, Mask sub_alive) {
  Mask out = 0;
  for (std::size_t sid = 0; sid < sub.edge_map.size(); ++sid) {
    if (test_bit(sub_alive, static_cast<int>(sid))) {
      out |= bit(sub.edge_map[sid]);
    }
  }
  return out;
}

/// s - m - t two-hop path with distinct probabilities.
inline FlowNetwork series_pair(double p1, double p2, Capacity cap = 1) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, cap, p1);
  net.add_undirected_edge(1, 2, cap, p2);
  return net;
}

/// Two parallel s - t links.
inline FlowNetwork parallel_pair(double p1, double p2, Capacity cap = 1) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, cap, p1);
  net.add_undirected_edge(0, 1, cap, p2);
  return net;
}

/// The classic 4-node diamond with a crossbar: s={0}, t={3}.
inline FlowNetwork diamond(double p, Capacity cap = 1) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, cap, p);
  net.add_undirected_edge(0, 2, cap, p);
  net.add_undirected_edge(1, 2, cap, p);
  net.add_undirected_edge(1, 3, cap, p);
  net.add_undirected_edge(2, 3, cap, p);
  return net;
}

}  // namespace streamrel::testing
