#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "streamrel/cuts/bottleneck.hpp"
#include "streamrel/cuts/cut_enumeration.hpp"
#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/util/exec_context.hpp"
#include "streamrel/util/prng.hpp"
#include "test_support.hpp"

namespace streamrel {
namespace {

TEST(PartitionFromSides, ComputesCrossingEdges) {
  const GeneratedNetwork g = make_fig4_graph();
  const BottleneckPartition p =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_EQ(p.crossing_edges, (std::vector<EdgeId>{7, 8}));
  EXPECT_EQ(p.k(), 2);
}

TEST(PartitionFromSides, ValidatesEndpoints) {
  const GeneratedNetwork g = make_fig4_graph();
  std::vector<bool> wrong(g.side_s);
  wrong[static_cast<std::size_t>(g.source)] = false;
  EXPECT_THROW(partition_from_sides(g.net, g.source, g.sink, wrong),
               std::invalid_argument);
  EXPECT_THROW(partition_from_sides(g.net, g.source, g.sink, {true, false}),
               std::invalid_argument);
}

TEST(PartitionFromCutEdges, RecoversPlantedBridge) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto part = partition_from_cut_edges(g.net, g.source, g.sink, {8});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, std::vector<EdgeId>{8});
  EXPECT_EQ(part->side_s, g.side_s);
}

TEST(PartitionFromCutEdges, NonSeparatingSetReturnsNullopt) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  EXPECT_FALSE(partition_from_cut_edges(g.net, g.source, g.sink, {0}));
  EXPECT_FALSE(partition_from_cut_edges(g.net, g.source, g.sink, {}));
}

TEST(PartitionFromCutEdges, DropsRedundantEdgesFromCrossing) {
  // Giving the bridge plus an S-internal edge: the partition keeps only
  // the true crossing edge.
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto part = partition_from_cut_edges(g.net, g.source, g.sink, {8, 0});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, std::vector<EdgeId>{8});
}

TEST(PartitionFromCutEdges, BalancesFloatingComponents) {
  // Path s - a - t plus an isolated pair {b, c}: removing the two path
  // edges leaves 4 components. The middle node and the floating pair get
  // assigned to the source side by the balance heuristic, so edge 0
  // becomes side-internal and the crossing set SHRINKS to the single
  // genuinely separating edge.
  FlowNetwork net(5);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_undirected_edge(3, 4, 1, 0.1);
  const auto part = partition_from_cut_edges(net, 0, 2, {0, 1});
  ASSERT_TRUE(part.has_value());
  EXPECT_EQ(part->crossing_edges, (std::vector<EdgeId>{1}));
  EXPECT_TRUE(removal_disconnects(net, 0, 2, part->crossing_edges));
}

TEST(AnalyzePartition, Fig4Stats) {
  const GeneratedNetwork g = make_fig4_graph();
  const BottleneckPartition p =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const PartitionStats stats = analyze_partition(g.net, g.source, g.sink, p);
  EXPECT_EQ(stats.k, 2);
  EXPECT_EQ(stats.edges_s, 5);
  EXPECT_EQ(stats.edges_t, 2);
  EXPECT_DOUBLE_EQ(stats.alpha, 5.0 / 9.0);
  EXPECT_TRUE(stats.minimal);
  EXPECT_TRUE(stats.two_components);
  EXPECT_EQ(stats.crossing_capacity, 4);
}

TEST(IsMinimalCutset, DetectsNonMinimal) {
  const GeneratedNetwork g = make_fig4_graph();
  EXPECT_TRUE(is_minimal_cutset(g.net, g.source, g.sink, {7, 8}));
  // Adding an extra edge breaks minimality.
  EXPECT_FALSE(is_minimal_cutset(g.net, g.source, g.sink, {7, 8, 4}));
  // A non-separating set is not a cut at all.
  EXPECT_FALSE(is_minimal_cutset(g.net, g.source, g.sink, {7}));
}

TEST(CutEnumeration, FindsAllMinimalCutsOnPath) {
  const GeneratedNetwork g = path_network(3, 1, 0.1);
  const auto cuts = enumerate_minimal_cutsets(g.net, g.source, g.sink);
  // Each single path edge is a minimal cut; no larger set is minimal.
  ASSERT_EQ(cuts.size(), 3u);
  for (const auto& cut : cuts) EXPECT_EQ(cut.size(), 1u);
}

TEST(CutEnumeration, DiamondHasSizeTwoCuts) {
  // s-a, s-b, a-t, b-t: minimal cuts are the 4 "one edge per path" pairs.
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(0, 2, 1, 0.1);
  net.add_undirected_edge(1, 3, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  const auto cuts = enumerate_minimal_cutsets(net, 0, 3);
  EXPECT_EQ(cuts.size(), 4u);
  for (const auto& cut : cuts) {
    EXPECT_EQ(cut.size(), 2u);
    EXPECT_TRUE(is_minimal_cutset(net, 0, 3, cut));
  }
}

TEST(CutEnumeration, RespectsMaxSize) {
  const GeneratedNetwork g = parallel_links(4, 1, 0.1);
  CutEnumerationOptions opts;
  opts.max_size = 3;
  EXPECT_TRUE(enumerate_minimal_cutsets(g.net, g.source, g.sink, opts).empty());
  opts.max_size = 4;
  const auto cuts = enumerate_minimal_cutsets(g.net, g.source, g.sink, opts);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].size(), 4u);
  opts.max_size = std::numeric_limits<int>::max();
  EXPECT_EQ(enumerate_minimal_cutsets(g.net, g.source, g.sink, opts), cuts);
}

TEST(CutEnumeration, DisconnectedInputYieldsNothing) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_TRUE(enumerate_minimal_cutsets(net, 0, 2).empty());
}

TEST(PartitionSearch, PicksThePlantedBridge) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  const auto choice = find_best_partition(g.net, g.source, g.sink);
  ASSERT_TRUE(choice.has_value());
  EXPECT_EQ(choice->partition.crossing_edges, std::vector<EdgeId>{8});
  EXPECT_EQ(choice->stats.k, 1);
  EXPECT_EQ(choice->stats.edges_s, 4);
  EXPECT_EQ(choice->stats.edges_t, 4);
}

TEST(PartitionSearch, PrefersBalanceOverCardinality) {
  const GeneratedNetwork g = make_fig4_graph();
  const auto choice = find_best_partition(g.net, g.source, g.sink);
  ASSERT_TRUE(choice.has_value());
  // The planted (5|2)-split with k=2 beats anything skinnier.
  EXPECT_LE(std::max(choice->stats.edges_s, choice->stats.edges_t), 5);
}

TEST(PartitionSearch, HonoursSideLimit) {
  const GeneratedNetwork g = make_fig2_bridge_graph();
  PartitionSearchOptions opts;
  opts.max_side_edges = 3;  // both diamond sides have 4 links
  EXPECT_FALSE(find_best_partition(g.net, g.source, g.sink, opts));
}

TEST(PartitionSearch, FindsCutsOnRandomClusteredGraphs) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    ClusteredParams params;
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const auto choice = find_best_partition(g.net, g.source, g.sink);
    ASSERT_TRUE(choice.has_value()) << "trial " << trial;
    // The search may prefer a wider cut with better balance than the
    // planted one, but it must stay within its own limits.
    EXPECT_LE(choice->stats.k, PartitionSearchOptions{}.max_k);
    // The found partition genuinely separates the demand endpoints.
    EXPECT_TRUE(removal_disconnects(g.net, g.source, g.sink,
                                    choice->partition.crossing_edges));
  }
}

TEST(CutEnumeration, CancelledContextThrowsFromInsideTheSearch) {
  const GeneratedNetwork g = make_fig4_graph();
  ExecContext cancelled;
  cancelled.request_cancel();
  try {
    enumerate_minimal_cutsets(g.net, g.source, g.sink, {}, &cancelled);
    FAIL() << "the search ignored a cancelled context";
  } catch (const ExecInterrupted& stop) {
    EXPECT_EQ(stop.status, SolveStatus::kCancelled);
  }
  const ExecContext expired = ExecContext::with_deadline_ms(0.0);
  EXPECT_THROW(enumerate_minimal_cutsets(g.net, g.source, g.sink, {}, &expired),
               ExecInterrupted);
  // A live context changes nothing.
  const ExecContext live;
  EXPECT_EQ(enumerate_minimal_cutsets(g.net, g.source, g.sink, {}, &live),
            enumerate_minimal_cutsets(g.net, g.source, g.sink));
}

TEST(CutEnumeration, BranchNodeCapKeepsOnlyGenuineCuts) {
  Xoshiro256 rng(99);
  ClusteredParams params;
  params.nodes_s = params.nodes_t = 7;
  params.extra_edges_s = params.extra_edges_t = 5;
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const auto all = enumerate_minimal_cutsets(g.net, g.source, g.sink);
  ASSERT_FALSE(all.empty());
  CutEnumerationOptions capped;
  capped.max_branch_nodes = 1;  // the root only: no cut is reached
  EXPECT_TRUE(
      enumerate_minimal_cutsets(g.net, g.source, g.sink, capped).empty());
  for (const std::uint64_t cap : {2u, 5u, 20u, 100u}) {
    capped.max_branch_nodes = cap;
    for (const auto& cut :
         enumerate_minimal_cutsets(g.net, g.source, g.sink, capped)) {
      EXPECT_NE(std::find(all.begin(), all.end(), cut), all.end())
          << "cap " << cap;
    }
  }
}

TEST(CutEnumeration, WorksBeyondTheMaskLimit) {
  const GeneratedNetwork path = path_network(70, 1, 0.1);
  CutEnumerationOptions opts;
  opts.max_size = 2;
  const auto singles =
      enumerate_minimal_cutsets(path.net, path.source, path.sink, opts);
  ASSERT_EQ(singles.size(), 70u);
  for (EdgeId id = 0; id < 70; ++id) {
    EXPECT_EQ(singles[static_cast<std::size_t>(id)], std::vector<EdgeId>{id});
  }
  const GeneratedNetwork ladder = ladder_network(40, 1, 0.1);
  ASSERT_FALSE(ladder.net.fits_mask());
  const auto pairs =
      enumerate_minimal_cutsets(ladder.net, ladder.source, ladder.sink, opts);
  EXPECT_FALSE(pairs.empty());
  for (const auto& cut : pairs) {
    EXPECT_EQ(cut.size(), 2u);
    EXPECT_TRUE(testing::reference_is_minimal_cutset(
        ladder.net, ladder.source, ladder.sink, cut));
  }
}

// ---- Equivalence with the exhaustive subset scan ----------------------

struct FamilyInstance {
  std::string name;
  GeneratedNetwork g;
};

/// Mixed copy of an undirected network: most links become directed away
/// from the source (by BFS depth); one in six points back and one in six
/// stays undirected.
GeneratedNetwork orient_from_source(const GeneratedNetwork& g,
                                    Xoshiro256& rng) {
  std::vector<int> depth(static_cast<std::size_t>(g.net.num_nodes()), -1);
  std::vector<NodeId> queue{g.source};
  depth[static_cast<std::size_t>(g.source)] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (EdgeId id : g.net.incident_edges(queue[head])) {
      const NodeId next = g.net.edge(id).other(queue[head]);
      if (depth[static_cast<std::size_t>(next)] != -1) continue;
      depth[static_cast<std::size_t>(next)] =
          depth[static_cast<std::size_t>(queue[head])] + 1;
      queue.push_back(next);
    }
  }
  GeneratedNetwork out = g;
  out.net = FlowNetwork(g.net.num_nodes());
  for (const Edge& e : g.net.edges()) {
    const bool forward = depth[static_cast<std::size_t>(e.u)] <=
                         depth[static_cast<std::size_t>(e.v)];
    const std::uint64_t roll = rng.uniform_below(6);
    const bool along = forward != (roll == 0);
    out.net.add_edge(along ? e.u : e.v, along ? e.v : e.u, e.capacity,
                     e.failure_prob,
                     roll == 1 ? EdgeKind::kUndirected : EdgeKind::kDirected);
  }
  return out;
}

/// Adds `count` directed links from random sink-side nodes to random
/// source-side nodes (T -> S arcs: never on a delivering path).
void add_back_arcs(GeneratedNetwork& g, Xoshiro256& rng, int count) {
  std::vector<NodeId> s_nodes;
  std::vector<NodeId> t_nodes;
  for (NodeId n = 0; n < g.net.num_nodes(); ++n) {
    (g.side_s[static_cast<std::size_t>(n)] ? s_nodes : t_nodes).push_back(n);
  }
  for (int i = 0; i < count; ++i) {
    g.net.add_directed_edge(t_nodes[rng.uniform_below(t_nodes.size())],
                            s_nodes[rng.uniform_below(s_nodes.size())], 1,
                            0.1);
  }
}

/// Every generator family, undirected and directed, plus disconnected
/// demand pairs; all mask-sized so the exhaustive scan can run.
std::vector<FamilyInstance> oracle_families() {
  std::vector<FamilyInstance> out;
  Xoshiro256 rng(20240917);
  for (int i = 0; i < 5; ++i) {
    ClusteredParams params;
    params.nodes_s = 3 + static_cast<int>(rng.uniform_below(4));
    params.nodes_t = 3 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = static_cast<int>(rng.uniform_below(4));
    params.extra_edges_t = static_cast<int>(rng.uniform_below(4));
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    out.push_back({"clustered", clustered_bottleneck(rng, params)});
  }
  for (std::uint64_t seed : {1u, 2u}) {
    // The service benchmark's instance shape: 18 nodes, 34 links.
    Xoshiro256 shaped(seed);
    ClusteredParams params;
    params.nodes_s = params.nodes_t = 9;
    params.extra_edges_s = params.extra_edges_t = 8;
    params.bottleneck_caps = {2, 3};
    out.push_back({"svcbench-shaped", clustered_bottleneck(shaped, params)});
  }
  for (int i = 0; i < 6; ++i) {
    ClusteredParams params;
    params.nodes_s = params.nodes_t = 4 + i % 3;
    params.extra_edges_s = params.extra_edges_t = 2 + i % 2;
    params.bottleneck_links = 1 + i % 3;
    // Half use the generator's own orientation (s often cannot reach t),
    // half are mixed graphs oriented away from the source.
    if (i % 2 == 0) params.kind = EdgeKind::kDirected;
    GeneratedNetwork g = clustered_bottleneck(rng, params);
    if (i % 2 == 1) g = orient_from_source(g, rng);
    add_back_arcs(g, rng, 2);
    out.push_back({"clustered-directed", std::move(g)});
  }
  for (int i = 0; i < 3; ++i) {
    out.push_back({"small-world",
                   small_world(rng, 9 + i, 4, 0.3, {1, 3}, {0.05, 0.2})});
    out.push_back({"preferential",
                   preferential_attachment(rng, 10 + i, 2, {1, 3},
                                           {0.05, 0.2})});
    out.push_back({"multigraph",
                   random_multigraph(rng, 7, 14, {1, 3}, {0.05, 0.2})});
    out.push_back({"multigraph-directed",
                   random_multigraph(rng, 7, 18, {1, 3}, {0.05, 0.2},
                                     EdgeKind::kDirected)});
    out.push_back({"small-world-mixed",
                   orient_from_source(small_world(rng, 10 + i, 4, 0.3, {1, 3},
                                                  {0.05, 0.2}),
                                      rng)});
  }
  out.push_back({"parallel", parallel_links(4, 1, 0.1)});
  out.push_back({"parallel-directed",
                 parallel_links(3, 1, 0.1, EdgeKind::kDirected)});
  {
    GeneratedNetwork split;  // s and t in different components
    split.net = FlowNetwork(4);
    split.net.add_undirected_edge(0, 1, 1, 0.1);
    split.net.add_undirected_edge(2, 3, 1, 0.1);
    split.source = 0;
    split.sink = 3;
    out.push_back({"disconnected", std::move(split)});
    GeneratedNetwork backwards;  // only t -> s arcs: one component, no path
    backwards.net = FlowNetwork(3);
    backwards.net.add_directed_edge(2, 1, 1, 0.1);
    backwards.net.add_directed_edge(1, 0, 1, 0.1);
    backwards.net.add_undirected_edge(0, 1, 1, 0.1);
    backwards.source = 0;
    backwards.sink = 2;
    out.push_back({"disconnected-directed", std::move(backwards)});
  }
  return out;
}

TEST(CutSearchOracle, MatchesExhaustiveScanOnEveryFamily) {
  int nonempty = 0;
  for (const FamilyInstance& inst : oracle_families()) {
    const GeneratedNetwork& g = inst.g;
    ASSERT_TRUE(g.net.fits_mask()) << inst.name;
    for (int max_size = 1; max_size <= 4; ++max_size) {
      for (const std::size_t max_results :
           {std::size_t{1}, std::size_t{3},
            CutEnumerationOptions{}.max_results}) {
        CutEnumerationOptions opts;
        opts.max_size = max_size;
        opts.max_results = max_results;
        const auto cuts = enumerate_minimal_cutsets(g.net, g.source, g.sink,
                                                    opts);
        EXPECT_EQ(cuts, testing::exhaustive_minimal_cutsets(
                            g.net, g.source, g.sink, opts))
            << inst.name << " max_size " << max_size << " max_results "
            << max_results;
        if (!cuts.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 200);  // the families are not degenerate
}

// Reference partition construction: rebuild G minus the cut as a
// FlowNetwork and label its components.
std::optional<BottleneckPartition> reference_partition_from_cut_edges(
    const FlowNetwork& net, NodeId s, NodeId t,
    const std::vector<EdgeId>& cut_edges) {
  if (!removal_disconnects(net, s, t, cut_edges)) return std::nullopt;
  std::vector<bool> gone(static_cast<std::size_t>(net.num_edges()), false);
  for (EdgeId id : cut_edges) gone[static_cast<std::size_t>(id)] = true;
  FlowNetwork reduced(net.num_nodes());
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    if (gone[static_cast<std::size_t>(id)]) continue;
    const Edge& e = net.edge(id);
    reduced.add_edge(e.u, e.v, e.capacity, e.failure_prob, e.kind);
  }
  const Components comps = connected_components(reduced);
  const int comp_s = comps.id[static_cast<std::size_t>(s)];
  const int comp_t = comps.id[static_cast<std::size_t>(t)];
  if (comp_s == comp_t) return std::nullopt;
  std::vector<int> comp_edges(static_cast<std::size_t>(comps.count), 0);
  for (EdgeId id = 0; id < reduced.num_edges(); ++id) {
    comp_edges[static_cast<std::size_t>(
        comps.id[static_cast<std::size_t>(reduced.edge(id).u)])]++;
  }
  int load_s = comp_edges[static_cast<std::size_t>(comp_s)];
  int load_t = comp_edges[static_cast<std::size_t>(comp_t)];
  std::vector<int> comp_side(static_cast<std::size_t>(comps.count), -1);
  comp_side[static_cast<std::size_t>(comp_s)] = 1;
  comp_side[static_cast<std::size_t>(comp_t)] = 0;
  for (int c = 0; c < comps.count; ++c) {
    if (comp_side[static_cast<std::size_t>(c)] != -1) continue;
    const bool to_s = load_s <= load_t;
    comp_side[static_cast<std::size_t>(c)] = to_s ? 1 : 0;
    (to_s ? load_s : load_t) += comp_edges[static_cast<std::size_t>(c)];
  }
  std::vector<bool> side(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    side[static_cast<std::size_t>(n)] =
        comp_side[static_cast<std::size_t>(
            comps.id[static_cast<std::size_t>(n)])] == 1;
  }
  return partition_from_sides(net, s, t, std::move(side));
}

PartitionStats reference_analyze_partition(const FlowNetwork& net, NodeId s,
                                           NodeId t,
                                           const BottleneckPartition& p) {
  PartitionStats stats;
  stats.k = p.k();
  for (const Edge& e : net.edges()) {
    const bool su = p.side_s[static_cast<std::size_t>(e.u)];
    const bool sv = p.side_s[static_cast<std::size_t>(e.v)];
    if (su && sv) stats.edges_s++;
    if (!su && !sv) stats.edges_t++;
  }
  for (EdgeId id : p.crossing_edges) {
    stats.crossing_capacity += net.edge(id).capacity;
  }
  if (net.num_edges() > 0) {
    stats.alpha = static_cast<double>(std::max(stats.edges_s, stats.edges_t)) /
                  static_cast<double>(net.num_edges());
  }
  stats.minimal =
      testing::reference_is_minimal_cutset(net, s, t, p.crossing_edges);
  FlowNetwork reduced(net.num_nodes());
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    if (std::find(p.crossing_edges.begin(), p.crossing_edges.end(), id) !=
        p.crossing_edges.end()) {
      continue;
    }
    const Edge& e = net.edge(id);
    reduced.add_edge(e.u, e.v, e.capacity, e.failure_prob, e.kind);
  }
  stats.two_components = connected_components(reduced).count == 2;
  return stats;
}

void expect_same_stats(const PartitionStats& a, const PartitionStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.k, b.k) << where;
  EXPECT_EQ(a.edges_s, b.edges_s) << where;
  EXPECT_EQ(a.edges_t, b.edges_t) << where;
  EXPECT_EQ(a.alpha, b.alpha) << where;
  EXPECT_EQ(a.minimal, b.minimal) << where;
  EXPECT_EQ(a.two_components, b.two_components) << where;
  EXPECT_EQ(a.crossing_capacity, b.crossing_capacity) << where;
}

TEST(CutSearchOracle, PartitionHelpersMatchReferenceFieldByField) {
  Xoshiro256 rng(4242);
  int partitions = 0;
  for (const FamilyInstance& inst : oracle_families()) {
    const GeneratedNetwork& g = inst.g;
    const int m = g.net.num_edges();
    // Inputs: every small minimal cut, the bridges, the min-cardinality
    // cut, and random edge sets (redundant, non-separating, repeated ids).
    std::vector<std::vector<EdgeId>> inputs =
        testing::exhaustive_minimal_cutsets(g.net, g.source, g.sink, {});
    for (EdgeId bridge : find_bridges(g.net)) inputs.push_back({bridge});
    inputs.push_back(min_cardinality_cut(g.net, g.source, g.sink).edges);
    for (int i = 0; i < 40 && m > 0; ++i) {
      std::vector<EdgeId> set;
      const int size = 1 + static_cast<int>(rng.uniform_below(5));
      for (int j = 0; j < size; ++j) {
        set.push_back(static_cast<EdgeId>(
            rng.uniform_below(static_cast<std::uint64_t>(m))));
      }
      inputs.push_back(std::move(set));
    }
    for (const auto& cut : inputs) {
      const std::string where = inst.name + " cut of " +
                                std::to_string(cut.size()) + " edges";
      EXPECT_EQ(is_minimal_cutset(g.net, g.source, g.sink, cut),
                testing::reference_is_minimal_cutset(g.net, g.source, g.sink,
                                                     cut))
          << where;
      const auto part =
          partition_from_cut_edges(g.net, g.source, g.sink, cut);
      const auto ref =
          reference_partition_from_cut_edges(g.net, g.source, g.sink, cut);
      ASSERT_EQ(part.has_value(), ref.has_value()) << where;
      if (!part) continue;
      ++partitions;
      EXPECT_EQ(part->side_s, ref->side_s) << where;
      EXPECT_EQ(part->crossing_edges, ref->crossing_edges) << where;
      expect_same_stats(analyze_partition(g.net, g.source, g.sink, *part),
                        reference_analyze_partition(g.net, g.source, g.sink,
                                                    *ref),
                        where);
    }
    if (!g.side_s.empty()) {
      const BottleneckPartition planted =
          partition_from_sides(g.net, g.source, g.sink, g.side_s);
      expect_same_stats(
          analyze_partition(g.net, g.source, g.sink, planted),
          reference_analyze_partition(g.net, g.source, g.sink, planted),
          inst.name + " planted");
    }
  }
  EXPECT_GT(partitions, 250);
}

// find_candidate_partitions as it ran on the exhaustive scan and the
// reference partition helpers.
std::vector<PartitionChoice> reference_candidate_partitions(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options) {
  std::vector<PartitionChoice> candidates;
  auto consider = [&](const std::vector<EdgeId>& cut) {
    auto part = reference_partition_from_cut_edges(net, s, t, cut);
    if (!part) return;
    const PartitionStats stats = reference_analyze_partition(net, s, t, *part);
    if (stats.k > options.max_k) return;
    if (std::max(stats.edges_s, stats.edges_t) > options.max_side_edges) {
      return;
    }
    for (const PartitionChoice& existing : candidates) {
      if (existing.partition.side_s == part->side_s) return;
    }
    candidates.push_back(PartitionChoice{std::move(*part), stats});
  };
  for (EdgeId bridge : find_bridges(net)) consider({bridge});
  const MinCut cardinality_cut = min_cardinality_cut(net, s, t);
  if (cardinality_cut.value > 0) consider(cardinality_cut.edges);
  CutEnumerationOptions enum_opts = options.enumeration;
  enum_opts.max_size = std::min(enum_opts.max_size, options.max_k);
  for (const auto& cut :
       testing::exhaustive_minimal_cutsets(net, s, t, enum_opts)) {
    consider(cut);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PartitionChoice& a, const PartitionChoice& b) {
              const int side_a = std::max(a.stats.edges_s, a.stats.edges_t);
              const int side_b = std::max(b.stats.edges_s, b.stats.edges_t);
              if (side_a != side_b) return side_a < side_b;
              return a.stats.k < b.stats.k;
            });
  return candidates;
}

TEST(CutSearchOracle, CandidatePartitionsMatchOraclePipeline) {
  int compared = 0;
  for (const FamilyInstance& inst : oracle_families()) {
    const GeneratedNetwork& g = inst.g;
    for (const int max_k : {2, 4}) {
      PartitionSearchOptions opts;
      opts.max_k = max_k;
      const auto got = find_candidate_partitions(g.net, g.source, g.sink, opts);
      const auto want =
          reference_candidate_partitions(g.net, g.source, g.sink, opts);
      ASSERT_EQ(got.size(), want.size()) << inst.name << " max_k " << max_k;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string where =
            inst.name + " max_k " + std::to_string(max_k) + " #" +
            std::to_string(i);
        EXPECT_EQ(got[i].partition.side_s, want[i].partition.side_s) << where;
        EXPECT_EQ(got[i].partition.crossing_edges,
                  want[i].partition.crossing_edges)
            << where;
        expect_same_stats(got[i].stats, want[i].stats, where);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 80);
}

}  // namespace
}  // namespace streamrel
