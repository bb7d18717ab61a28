// Side arrays (paper §III-C): the worked examples of Figs. 4 and 5, and
// the oracle suite — build_side_array against the paper's own procedure,
// one bounded max-flow per (configuration, assignment) through
// SideMaskEvaluator (testing::oracle_side_array), compared with array ==.

#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>

#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/util/prng.hpp"
#include "test_support.hpp"

namespace streamrel {
namespace {

struct Fig4Fixture {
  GeneratedNetwork g = make_fig4_graph();
  BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  FlowDemand demand{g.source, g.sink, 2};
  AssignmentSet assignments = enumerate_assignments(
      g.net, partition, 2, {AssignmentMode::kForwardOnly});
};

TEST(SideProblem, Fig4Shapes) {
  Fig4Fixture fx;
  const SideProblem side_s =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  EXPECT_TRUE(side_s.is_source_side);
  EXPECT_EQ(side_s.view.num_nodes(), 3);  // s, x1, x2
  EXPECT_EQ(side_s.view.num_edges(), 5);
  ASSERT_EQ(side_s.endpoints.size(), 2u);
  // Endpoint of edge 7 is x1 (original node 1), of edge 8 is x2 (node 2).
  EXPECT_EQ(side_s.view.original_node(side_s.endpoints[0]), 1);
  EXPECT_EQ(side_s.view.original_node(side_s.endpoints[1]), 2);

  const SideProblem side_t =
      make_side_problem(fx.g.net, fx.demand, fx.partition, false);
  EXPECT_FALSE(side_t.is_source_side);
  EXPECT_EQ(side_t.view.num_edges(), 2);
  EXPECT_EQ(side_t.view.original_node(side_t.anchor), 5);
}

TEST(SideArray, Fig4AssignmentSetIsThePaperTriple) {
  Fig4Fixture fx;
  ASSERT_EQ(fx.assignments.size(), 3);
  EXPECT_EQ(fx.assignments.assignments[0].usage, (std::vector<Capacity>{0, 2}));
  EXPECT_EQ(fx.assignments.assignments[1].usage, (std::vector<Capacity>{1, 1}));
  EXPECT_EQ(fx.assignments.assignments[2].usage, (std::vector<Capacity>{2, 0}));
}

TEST(SideArray, Fig5ConfigurationsRealizeTheStatedSets) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      config_form(build_side_array(side, fx.assignments, fx.demand.rate));
  const Fig5Configs configs = fig5_source_side_configs();
  // Assignment bit order: 0 = (0,2), 1 = (1,1), 2 = (2,0).
  EXPECT_EQ(array[static_cast<std::size_t>(configs.a)], mask_of({0, 1}))
      << "config (a) must realize {(1,1),(0,2)}";
  EXPECT_EQ(array[static_cast<std::size_t>(configs.b)], mask_of({1}))
      << "config (b) must realize {(1,1)}";
  EXPECT_EQ(array[static_cast<std::size_t>(configs.c)], mask_of({0, 1, 2}))
      << "config (c) must realize all three assignments";
}

TEST(SideArray, EmptyConfigurationRealizesNothing) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      config_form(build_side_array(side, fx.assignments, fx.demand.rate));
  EXPECT_EQ(array[0], 0u);
}

TEST(SideArray, SinkSideArrayFullConfigRealizesAll) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, false);
  const std::vector<Mask> array =
      config_form(build_side_array(side, fx.assignments, fx.demand.rate));
  ASSERT_EQ(array.size(), 4u);            // 2 sink-side links
  EXPECT_EQ(array[0b11], mask_of({0, 1, 2}));
  // Only y1-t alive: (2,0) sends both units through y1.
  EXPECT_EQ(array[0b01], mask_of({2}));
  // Only y2-t alive: (0,2) only.
  EXPECT_EQ(array[0b10], mask_of({0}));
  EXPECT_EQ(array[0b00], 0u);
}

TEST(SideArray, MaxflowCallCounterAdvances) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  std::uint64_t oracle_calls = 0;
  const std::vector<Mask> oracle = testing::oracle_side_array(
      side, fx.assignments, fx.demand.rate, &oracle_calls);
  // |D| * 2^{|E_s|} exactly, the paper's count.
  EXPECT_EQ(oracle_calls, 3u * 32u);
  SideArrayStats stats;
  EXPECT_EQ(config_form(build_side_array(side, fx.assignments,
                                         fx.demand.rate, &stats)),
            oracle);
  EXPECT_GT(stats.maxflow_calls(), 0u);
  EXPECT_LT(stats.maxflow_calls(), oracle_calls);
}

TEST(BucketDistribution, SumsToOneAndMatchesArray) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      config_form(build_side_array(side, fx.assignments, fx.demand.rate));
  const MaskDistribution dist =
      bucket_side_array(side, slab_form(array, side.view.num_edges()));
  EXPECT_NEAR(dist.total, 1.0, 1e-12);
  double sum = 0.0;
  for (const auto& [mask, p] : dist.buckets) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Bucket masks are exactly the distinct array values.
  for (const auto& [mask, p] : dist.buckets) {
    EXPECT_NE(std::find(array.begin(), array.end(), mask), array.end());
  }
}

TEST(SideArray, RejectsOversizedSide) {
  FlowNetwork net(3);
  for (int i = 0; i < 64; ++i) net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 2, {true, true, false});
  EXPECT_THROW(
      make_side_problem(net, {0, 2, 1}, partition, /*source_side=*/true),
      std::invalid_argument);
}

// --- Oracle suite -------------------------------------------------------
//
// Every array build_side_array returns must equal the oracle's, over side
// sizes 0..12 (zero links, partial 64-lane slabs, single-shard and
// sharded sweeps), every generator family, both assignment modes and
// d = 1..4. The word-wide kernels and the residue engine must also
// account for every (configuration, assignment) decision exactly once.

std::optional<AssignmentSet> try_assignments(const FlowNetwork& net,
                                             const BottleneckPartition& p,
                                             Capacity d, AssignmentMode mode) {
  try {
    AssignmentSet set = enumerate_assignments(net, p, d, {mode});
    if (set.size() == 0) return std::nullopt;
    return set;
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // |D| beyond the mask: not a side-array question
  }
}

/// What a family's comparisons covered, for the coverage assertions.
struct OracleTally {
  int sides = 0;
  int sharded = 0;         ///< sides of >= 1024 configurations
  int partial_slab = 0;    ///< sides of < 64 configurations
  int forward_rich = 0;    ///< forward-only, k < 6, |D| > 2^k - 1
  bool saw_negative_usage = false;
};

void expect_side_matches_oracle(const SideProblem& side,
                                const AssignmentSet& set, Capacity d,
                                const std::string& where,
                                OracleTally& tally) {
  std::uint64_t oracle_calls = 0;
  const std::vector<Mask> want =
      testing::oracle_side_array(side, set, d, &oracle_calls);
  SideArrayStats stats;
  const std::vector<Mask> got =
      config_form(build_side_array(side, set, d, &stats));
  ASSERT_EQ(got, want) << where;
  EXPECT_LE(stats.maxflow_calls(), oracle_calls) << where;
  const std::uint64_t decisions = static_cast<std::uint64_t>(want.size()) *
                                  static_cast<std::uint64_t>(set.size());
  EXPECT_EQ(stats.lanes_decided_wordwise() + stats.scalar_residue(),
            decisions)
      << where;
  EXPECT_EQ(stats.certificate_misses(), 0u) << where;
  ++tally.sides;
  if (want.size() >= 1024) ++tally.sharded;
  if (want.size() < 64) ++tally.partial_slab;
}

/// Both sides of `partition` under `mode` at rate d.
void expect_partition_matches_oracle(const FlowNetwork& net,
                                     const FlowDemand& demand,
                                     const BottleneckPartition& partition,
                                     AssignmentMode mode,
                                     const std::string& where,
                                     OracleTally& tally) {
  const std::optional<AssignmentSet> set =
      try_assignments(net, partition, demand.rate, mode);
  if (!set) return;
  const int k = partition.k();
  if (set->mode == AssignmentMode::kForwardOnly && k < 6 &&
      set->size() > (1 << k) - 1) {
    ++tally.forward_rich;
  }
  for (const Assignment& a : set->assignments) {
    tally.saw_negative_usage |= std::any_of(
        a.usage.begin(), a.usage.end(), [](Capacity u) { return u < 0; });
  }
  const auto snapshot = net.compile();
  for (const bool source_side : {true, false}) {
    expect_side_matches_oracle(
        make_side_problem(snapshot, demand, partition, source_side), *set,
        demand.rate,
        where + " mode " + std::to_string(static_cast<int>(mode)) +
            (source_side ? " side s" : " side t"),
        tally);
  }
}

/// A clustered network whose two clusters each carry exactly m >= 1
/// internal links: nodes - 1 tree links plus the rest as extras.
GeneratedNetwork clustered_with_side_links(Xoshiro256& rng, int m, int k,
                                           CapacityRange crossing_caps) {
  ClusteredParams params;
  params.nodes_s = params.nodes_t = 2 + (m - 1) / 2;
  params.extra_edges_s = params.extra_edges_t = m - (params.nodes_s - 1);
  params.bottleneck_links = k;
  params.bottleneck_caps = crossing_caps;
  return clustered_bottleneck(rng, params);
}

TEST(SideArrayOracle, SideSizesZeroToTwelve) {
  OracleTally tally;
  // Zero-link sides: the source is itself the crossing endpoint.
  {
    FlowNetwork both_empty(2);  // s and t joined by three parallel links
    both_empty.add_undirected_edge(0, 1, 1, 0.1);
    both_empty.add_undirected_edge(0, 1, 2, 0.2);
    both_empty.add_undirected_edge(0, 1, 1, 0.3);
    FlowNetwork source_empty(4);  // s | {1, 2, 3 = t}
    source_empty.add_undirected_edge(0, 1, 2, 0.1);
    source_empty.add_undirected_edge(0, 2, 1, 0.2);
    source_empty.add_undirected_edge(1, 2, 1, 0.1);
    source_empty.add_undirected_edge(1, 3, 2, 0.2);
    source_empty.add_undirected_edge(2, 3, 1, 0.3);
    const std::vector<std::pair<const FlowNetwork*, NodeId>> nets{
        {&both_empty, 1}, {&source_empty, 3}};
    for (const auto& [net, sink] : nets) {
      std::vector<bool> side_s(static_cast<std::size_t>(net->num_nodes()),
                               false);
      side_s[0] = true;
      const BottleneckPartition partition =
          partition_from_sides(*net, 0, sink, side_s);
      for (Capacity d = 1; d <= 3; ++d) {
        for (const AssignmentMode mode :
             {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
          expect_partition_matches_oracle(*net, {0, sink, d}, partition, mode,
                                          "zero-link side, d=" +
                                              std::to_string(d),
                                          tally);
        }
      }
    }
  }
  Xoshiro256 rng(20261019);
  for (int m = 1; m <= 12; ++m) {
    for (int i = 0; i < 3; ++i) {
      const int k = 1 + (m + i) % 3;
      const Capacity d = 1 + (m + i) % 4;
      const GeneratedNetwork g = clustered_with_side_links(rng, m, k, {1, 3});
      const BottleneckPartition partition =
          partition_from_sides(g.net, g.source, g.sink, g.side_s);
      for (const AssignmentMode mode :
           {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
        expect_partition_matches_oracle(
            g.net, {g.source, g.sink, d}, partition, mode,
            "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                " d=" + std::to_string(d),
            tally);
      }
    }
  }
  EXPECT_GT(tally.partial_slab, 20);
  EXPECT_GT(tally.sharded, 10);
  EXPECT_TRUE(tally.saw_negative_usage);
}

// 200 seeded clustered graphs, sides from a handful of links up to 2^10
// configurations.
TEST(SideArrayOracle, ClusteredFamily) {
  Xoshiro256 rng(20260807);
  OracleTally tally;
  for (int trial = 0; trial < 200; ++trial) {
    ClusteredParams params;
    params.nodes_s = 3 + static_cast<int>(rng.uniform_below(4));
    params.nodes_t = 3 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = static_cast<int>(rng.uniform_below(4));
    params.extra_edges_t = static_cast<int>(rng.uniform_below(4));
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_caps = {1, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 4);
    for (const AssignmentMode mode :
         {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
      expect_partition_matches_oracle(g.net, {g.source, g.sink, d}, partition,
                                      mode, "trial " + std::to_string(trial),
                                      tally);
    }
  }
  EXPECT_GT(tally.sides, 500);
  EXPECT_TRUE(tally.saw_negative_usage);
}

/// Every candidate partition (up to three per network) the search finds
/// on small networks of one generator family, both modes, rates 1..4.
OracleTally check_searched_family(const std::string& family,
                                  const std::vector<GeneratedNetwork>& nets) {
  PartitionSearchOptions search;
  search.max_k = 3;
  search.max_side_edges = 12;
  OracleTally tally;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const GeneratedNetwork& g = nets[i];
    const Capacity d = 1 + static_cast<Capacity>(i % 4);
    const std::vector<PartitionChoice> choices =
        find_candidate_partitions(g.net, g.source, g.sink, search);
    for (std::size_t c = 0; c < choices.size() && c < 3; ++c) {
      for (const AssignmentMode mode :
           {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
        expect_partition_matches_oracle(
            g.net, {g.source, g.sink, d}, choices[c].partition, mode,
            family + " #" + std::to_string(i) + " partition " +
                std::to_string(c) + " d=" + std::to_string(d),
            tally);
      }
    }
  }
  return tally;
}

TEST(SideArrayOracle, SmallWorldPreferentialAttachmentAndMultigraphFamilies) {
  Xoshiro256 rng(20261020);
  const CapacityRange caps{1, 3};
  const ProbRange probs{0.05, 0.4};
  std::vector<GeneratedNetwork> small, hubs, multi;
  for (int i = 0; i < 8; ++i) {
    small.push_back(small_world(rng, 9 + i % 3, 2, 0.3, caps, probs));
    hubs.push_back(preferential_attachment(rng, 6 + i % 2, 2, caps, probs));
    multi.push_back(random_multigraph(rng, 6 + i % 2, 9 + i % 3, caps, probs));
  }
  for (const auto& [family, nets] :
       {std::pair{"small-world", &small},
        std::pair{"preferential-attachment", &hubs},
        std::pair{"random-multigraph", &multi}}) {
    const OracleTally tally = check_searched_family(family, *nets);
    EXPECT_GE(tally.sides, 16) << family;
  }
}

TEST(SideArrayOracle, DirectedClusteredFamilyResolvesForwardOnly) {
  Xoshiro256 rng(20261021);
  OracleTally tally;
  for (int i = 0; i < 24; ++i) {
    const int m = 3 + i % 8;
    const GeneratedNetwork g =
        testing::orient_along_planted_cut(
            clustered_with_side_links(rng, m, 1 + i % 3, {1, 3}));
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = 1 + i % 4;
    const std::optional<AssignmentSet> set =
        try_assignments(g.net, partition, d, AssignmentMode::kAuto);
    if (!set) continue;
    ASSERT_EQ(set->mode, AssignmentMode::kForwardOnly) << "instance " << i;
    expect_partition_matches_oracle(g.net, {g.source, g.sink, d}, partition,
                                    AssignmentMode::kAuto,
                                    "directed #" + std::to_string(i), tally);
  }
  EXPECT_GE(tally.sides, 30);
  EXPECT_FALSE(tally.saw_negative_usage);
}

// Forward-only sets with |D| > 2^k - 1 at k < 6: the shapes a
// Gale-condition (polymatroid) check would answer with 2^k - 1 subset
// flows per configuration. The one sweep must give the oracle's arrays
// on them too.
TEST(SideArrayOracle, ForwardOnlyWithMoreAssignmentsThanSubsets) {
  Xoshiro256 rng(20261022);
  OracleTally tally;
  // (k, d) with every crossing cap 3: |D| = 4, 10, 12, 31 > 2^k - 1.
  const std::pair<int, Capacity> shapes[] = {{2, 3}, {3, 3}, {3, 4}, {4, 4}};
  for (int i = 0; i < 16; ++i) {
    const auto [k, d] = shapes[i % 4];
    const GeneratedNetwork g =
        clustered_with_side_links(rng, 4 + i % 7, k, {3, 3});
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    expect_partition_matches_oracle(g.net, {g.source, g.sink, d}, partition,
                                    AssignmentMode::kForwardOnly,
                                    "rich #" + std::to_string(i), tally);
  }
  EXPECT_EQ(tally.forward_rich, 16);
}

// The shard geometry is fixed by the array size, so one thread and the
// default pool give the same arrays AND the same counters.
TEST(SideArrayOracle, OneThreadMatchesDefaultThreads) {
  Xoshiro256 rng(20261023);
  ExecContext one_thread;
  one_thread.max_threads = 1;
  int sharded = 0;
  for (int i = 0; i < 6; ++i) {
    const int m = 10 + i % 3;
    const GeneratedNetwork g =
        clustered_with_side_links(rng, m, 1 + i % 3, {1, 3});
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = 1 + i % 4;
    for (const AssignmentMode mode :
         {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
      const std::optional<AssignmentSet> set =
          try_assignments(g.net, partition, d, mode);
      if (!set) continue;
      for (const bool source_side : {true, false}) {
        const SideProblem side = make_side_problem(
            g.net, {g.source, g.sink, d}, partition, source_side);
        SideArrayStats serial_stats;
        SideArrayStats pooled_stats;
        const std::vector<Mask> serial = config_form(
            build_side_array(side, *set, d, &serial_stats, &one_thread));
        const std::vector<Mask> pooled =
            config_form(build_side_array(side, *set, d, &pooled_stats));
        const std::string where = "instance " + std::to_string(i) +
                                  (source_side ? " side s" : " side t");
        ASSERT_EQ(serial, pooled) << where;
        EXPECT_TRUE(serial_stats.telemetry.counters_equal(
            pooled_stats.telemetry))
            << where;
        EXPECT_EQ(serial_stats.maxflow_calls(), pooled_stats.maxflow_calls())
            << where;
        if (i < 2) {
          EXPECT_EQ(serial, testing::oracle_side_array(side, *set, d))
              << where;
        }
        ++sharded;
      }
    }
  }
  EXPECT_GE(sharded, 16);
}

// --- Boundary gate ------------------------------------------------------
//
// Every query of the closure sweep is one bounded solve, and every
// queried NO is a maximal failing configuration, so the solves stay
// close to the array's boundary (minimal realizing plus maximal failing
// configurations per assignment). The gate allows twice the boundary.

void expect_queries_within_twice_the_boundary(const SideProblem& side,
                                              const AssignmentSet& set,
                                              Capacity d,
                                              const std::string& where) {
  const std::vector<Mask> want = testing::oracle_side_array(side, set, d);
  SideArrayStats stats;
  ASSERT_EQ(config_form(build_side_array(side, set, d, &stats)), want)
      << where;
  const std::uint64_t boundary = testing::side_array_boundary(
      want, side.view.num_edges(), set.size());
  EXPECT_LE(stats.scalar_residue(), 2 * boundary) << where;
  EXPECT_EQ(stats.maxflow_calls(), stats.scalar_residue()) << where;
}

TEST(SideArrayBoundary, ClusteredFamilyQueriesWithinTwiceTheBoundary) {
  Xoshiro256 rng(20260807);
  int sides = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ClusteredParams params;
    params.nodes_s = 3 + static_cast<int>(rng.uniform_below(4));
    params.nodes_t = 3 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = static_cast<int>(rng.uniform_below(4));
    params.extra_edges_t = static_cast<int>(rng.uniform_below(4));
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_caps = {1, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 4);
    for (const AssignmentMode mode :
         {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
      const std::optional<AssignmentSet> set =
          try_assignments(g.net, partition, d, mode);
      if (!set) continue;
      for (const bool source_side : {true, false}) {
        expect_queries_within_twice_the_boundary(
            make_side_problem(g.net, {g.source, g.sink, d}, partition,
                              source_side),
            *set, d,
            "trial " + std::to_string(trial) + (source_side ? " s" : " t"));
        ++sides;
      }
    }
  }
  EXPECT_GT(sides, 500);
}

// The sides a cold service request sweeps: 9-node clusters with 8 extra
// links (16 links a side), two crossing links of capacity 2..3, d = 2.
TEST(SideArrayBoundary, ServiceShapedSidesQueryWithinTwiceTheBoundary) {
  Xoshiro256 rng(20261024);
  int sides = 0;
  for (int i = 0; i < 4; ++i) {
    ClusteredParams params;
    params.nodes_s = params.nodes_t = 9;
    params.extra_edges_s = params.extra_edges_t = 8;
    params.bottleneck_links = 2;
    params.bottleneck_caps = {2, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const std::optional<AssignmentSet> set =
        try_assignments(g.net, partition, 2, AssignmentMode::kAuto);
    ASSERT_TRUE(set.has_value()) << "instance " << i;
    const auto snapshot = g.net.compile();
    for (const bool source_side : {true, false}) {
      const SideProblem side = make_side_problem(
          snapshot, {g.source, g.sink, 2}, partition, source_side);
      ASSERT_EQ(side.view.num_edges(), 16);
      expect_queries_within_twice_the_boundary(
          side, *set, 2,
          "instance " + std::to_string(i) + (source_side ? " s" : " t"));
      ++sides;
    }
  }
  EXPECT_EQ(sides, 8);
}

// --- Stop and progress ----------------------------------------------------

/// The E26 instance (bench/side_array_sweep, seed 33): a source side of
/// 20 links, two crossing links, d = 2, forward-only assignments.
struct E26Side {
  GeneratedNetwork g;
  BottleneckPartition partition;
  AssignmentSet assignments;
  SideProblem side;

  E26Side() {
    Xoshiro256 rng(33);
    ClusteredParams params;
    params.nodes_s = 11;
    params.extra_edges_s = 10;
    params.nodes_t = 4;
    params.extra_edges_t = 1;
    params.bottleneck_links = 2;
    params.bottleneck_caps = {1, 3};
    g = clustered_bottleneck(rng, params);
    partition = partition_from_sides(g.net, g.source, g.sink, g.side_s);
    assignments = enumerate_assignments(g.net, partition, 2,
                                        {AssignmentMode::kForwardOnly});
    side = make_side_problem(g.net, {g.source, g.sink, 2}, partition, true);
  }
};

/// A progress sink whose first write stalls for 10 ms, so a 5 ms
/// deadline passes in the middle of the sweep however fast the host is.
class StallingStreamBuf : public std::streambuf {
 protected:
  int overflow(int c) override {
    stall();
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    stall();
    return n;
  }

 private:
  void stall() {
    if (!stalled_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::atomic<bool> stalled_{false};
};

TEST(SideArrayStop, DeadlineStopsTheSweepPromptly) {
  const E26Side e26;
  ASSERT_EQ(e26.side.view.num_edges(), 20);
  for (const int threads : {1, 0}) {
    StallingStreamBuf stalling;
    std::ostream progress_out(&stalling);
    ExecContext ctx = ExecContext::with_deadline_ms(5.0);
    ctx.max_threads = threads;
    ctx.progress = std::make_shared<ProgressReporter>(&progress_out);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      build_side_array(e26.side, e26.assignments, 2, nullptr, &ctx);
      FAIL() << "threads=" << threads << ": the sweep outran its deadline";
    } catch (const ExecInterrupted& stop) {
      EXPECT_EQ(stop.status, SolveStatus::kDeadlineExpired);
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_LT(ms, 100.0) << "threads=" << threads;
  }
}

TEST(SideArrayStop, ProgressReachesTheTotal) {
  const E26Side e26;
  std::ostringstream out;
  ExecContext ctx;
  ctx.progress = std::make_shared<ProgressReporter>(&out);
  const std::vector<Mask> array = config_form(
      build_side_array(e26.side, e26.assignments, 2, nullptr, &ctx));
  EXPECT_EQ(ctx.progress->total(), std::uint64_t{1} << 20);
  EXPECT_EQ(ctx.progress->visited(), ctx.progress->total());
  EXPECT_EQ(array.size(), std::size_t{1} << 20);
}

}  // namespace
}  // namespace streamrel
