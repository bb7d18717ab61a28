#include "streamrel/cuts/bottleneck.hpp"

#include <algorithm>
#include <stdexcept>

#include "streamrel/graph/graph_algos.hpp"

namespace streamrel {

namespace {

std::vector<EdgeId> crossing_of(const FlowNetwork& net,
                                const std::vector<bool>& side_s) {
  std::vector<EdgeId> crossing;
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    const Edge& e = net.edge(id);
    if (side_s[static_cast<std::size_t>(e.u)] !=
        side_s[static_cast<std::size_t>(e.v)]) {
      crossing.push_back(id);
    }
  }
  return crossing;
}

}  // namespace

BottleneckPartition partition_from_sides(const FlowNetwork& net, NodeId s,
                                         NodeId t,
                                         std::vector<bool> side_s) {
  if (side_s.size() != static_cast<std::size_t>(net.num_nodes())) {
    throw std::invalid_argument("side vector size mismatch");
  }
  if (!net.valid_node(s) || !net.valid_node(t)) {
    throw std::invalid_argument("bad demand endpoints");
  }
  if (!side_s[static_cast<std::size_t>(s)]) {
    throw std::invalid_argument("source must lie on the S side");
  }
  if (side_s[static_cast<std::size_t>(t)]) {
    throw std::invalid_argument("sink must lie on the T side");
  }
  BottleneckPartition p;
  p.crossing_edges = crossing_of(net, side_s);
  p.side_s = std::move(side_s);
  return p;
}

std::optional<BottleneckPartition> partition_from_cut_edges(
    const FlowNetwork& net, NodeId s, NodeId t,
    const std::vector<EdgeId>& cut_edges) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad demand endpoints");
  }
  // Components of G - cut (direction-insensitive so the side sets are
  // well-defined for mixed graphs too). Separate components imply the
  // removal disconnects s from t. One shared component means either no
  // disconnection or a directed-only one (s cannot reach t but both lie in
  // one undirected component); no node bipartition reproduces the latter.
  const std::vector<bool> gone = removed_edge_flags(net, cut_edges);
  const Components comps = connected_components_without(net, gone);
  const int comp_s = comps.id[static_cast<std::size_t>(s)];
  const int comp_t = comps.id[static_cast<std::size_t>(t)];
  if (comp_s == comp_t) return std::nullopt;

  // Count internal links per component to drive the balance heuristic.
  std::vector<int> comp_edges(static_cast<std::size_t>(comps.count), 0);
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    if (gone[static_cast<std::size_t>(id)]) continue;
    comp_edges[static_cast<std::size_t>(
        comps.id[static_cast<std::size_t>(net.edge(id).u)])]++;
  }

  int load_s = comp_edges[static_cast<std::size_t>(comp_s)];
  int load_t = comp_edges[static_cast<std::size_t>(comp_t)];
  std::vector<int> comp_side(static_cast<std::size_t>(comps.count), -1);
  comp_side[static_cast<std::size_t>(comp_s)] = 1;
  comp_side[static_cast<std::size_t>(comp_t)] = 0;
  for (int c = 0; c < comps.count; ++c) {
    if (comp_side[static_cast<std::size_t>(c)] != -1) continue;
    if (load_s <= load_t) {
      comp_side[static_cast<std::size_t>(c)] = 1;
      load_s += comp_edges[static_cast<std::size_t>(c)];
    } else {
      comp_side[static_cast<std::size_t>(c)] = 0;
      load_t += comp_edges[static_cast<std::size_t>(c)];
    }
  }
  std::vector<bool> side(static_cast<std::size_t>(net.num_nodes()), false);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    side[static_cast<std::size_t>(n)] =
        comp_side[static_cast<std::size_t>(
            comps.id[static_cast<std::size_t>(n)])] == 1;
  }
  return partition_from_sides(net, s, t, std::move(side));
}

PartitionStats analyze_partition(const FlowNetwork& net, NodeId s, NodeId t,
                                 const BottleneckPartition& partition) {
  PartitionStats stats;
  stats.k = partition.k();
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    const Edge& e = net.edge(id);
    const bool su = partition.side_s[static_cast<std::size_t>(e.u)];
    const bool sv = partition.side_s[static_cast<std::size_t>(e.v)];
    if (su && sv) {
      stats.edges_s++;
    } else if (!su && !sv) {
      stats.edges_t++;
    }
  }
  for (EdgeId id : partition.crossing_edges) {
    stats.crossing_capacity += net.edge(id).capacity;
  }
  if (net.num_edges() > 0) {
    stats.alpha = static_cast<double>(std::max(stats.edges_s, stats.edges_t)) /
                  static_cast<double>(net.num_edges());
  }
  stats.minimal = is_minimal_cutset(net, s, t, partition.crossing_edges);
  // "Exactly two components" in the paper's sense: each side is internally
  // connected (direction-insensitive).
  stats.two_components =
      connected_components_without(
          net, removed_edge_flags(net, partition.crossing_edges))
          .count == 2;
  return stats;
}

bool is_minimal_cutset(const FlowNetwork& net, NodeId s, NodeId t,
                       const std::vector<EdgeId>& cut) {
  if (!net.valid_node(s) || !net.valid_node(t)) {
    throw std::invalid_argument("bad endpoints");
  }
  const std::vector<bool> gone = removed_edge_flags(net, cut);
  // A repeated id leaves the removal unchanged when one copy is dropped.
  if (static_cast<std::size_t>(std::count(gone.begin(), gone.end(), true)) !=
      cut.size()) {
    return false;
  }
  const std::vector<bool> from_s = reachable_nodes_without(net, s, gone);
  if (from_s[static_cast<std::size_t>(t)]) return false;
  // Minimal iff restoring any one cut edge reconnects s and t: the edge
  // leads from a node s reaches to a node that reaches t in G - cut.
  const std::vector<bool> to_t =
      reachable_nodes_without(net, t, gone, /*backward=*/true);
  auto joins = [&](NodeId a, NodeId b) {
    return from_s[static_cast<std::size_t>(a)] &&
           to_t[static_cast<std::size_t>(b)];
  };
  return std::all_of(cut.begin(), cut.end(), [&](EdgeId id) {
    const Edge& e = net.edge(id);
    return joins(e.u, e.v) || (!e.directed() && joins(e.v, e.u));
  });
}

}  // namespace streamrel
