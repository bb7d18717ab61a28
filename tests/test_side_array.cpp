#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "streamrel/graph/generators.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/util/prng.hpp"

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
      build_side_array(side, fx.assignments, fx.demand.rate);
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
      build_side_array(side, fx.assignments, fx.demand.rate);
  EXPECT_EQ(array[0], 0u);
}

TEST(SideArray, SinkSideArrayFullConfigRealizesAll) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, false);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
  ASSERT_EQ(array.size(), 4u);            // 2 sink-side links
  EXPECT_EQ(array[0b11], mask_of({0, 1, 2}));
  // Only y1-t alive: (2,0) sends both units through y1.
  EXPECT_EQ(array[0b01], mask_of({2}));
  // Only y2-t alive: (0,2) only.
  EXPECT_EQ(array[0b10], mask_of({0}));
  EXPECT_EQ(array[0b00], 0u);
}

TEST(SideArray, PolymatroidMatchesPerAssignment) {
  Xoshiro256 rng(808);
  for (int trial = 0; trial < 25; ++trial) {
    ClusteredParams params;
    params.nodes_s = 4;
    params.nodes_t = 4;
    params.extra_edges_s = 2;
    params.extra_edges_t = 2;
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 4);
    const AssignmentSet assignments = enumerate_assignments(
        g.net, partition, d, {AssignmentMode::kForwardOnly});
    if (assignments.size() == 0) continue;
    for (const bool source_side : {true, false}) {
      const SideProblem side = make_side_problem(
          g.net, {g.source, g.sink, d}, partition, source_side);
      SideArrayOptions per, poly;
      per.feasibility = FeasibilityMethod::kPerAssignment;
      poly.feasibility = FeasibilityMethod::kPolymatroid;
      EXPECT_EQ(build_side_array(side, assignments, d, per),
                build_side_array(side, assignments, d, poly))
          << "trial " << trial << " source_side=" << source_side;
    }
  }
}

TEST(SideArray, PolymatroidRejectsSignedAssignments) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  AssignmentSet signed_set = fx.assignments;
  signed_set.mode = AssignmentMode::kSigned;
  SideArrayOptions options;
  options.feasibility = FeasibilityMethod::kPolymatroid;
  EXPECT_THROW(build_side_array(side, signed_set, fx.demand.rate, options),
               std::invalid_argument);
}

TEST(SideArray, MaxflowCallCounterAdvances) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  std::uint64_t calls = 0;
  SideArrayOptions options;
  options.feasibility = FeasibilityMethod::kPerAssignment;
  build_side_array(side, fx.assignments, fx.demand.rate, options, &calls);
  // |D| * 2^{|E_s|} exactly, the paper's count.
  EXPECT_EQ(calls, 3u * 32u);
}

TEST(BucketDistribution, SumsToOneAndMatchesArray) {
  Fig4Fixture fx;
  const SideProblem side =
      make_side_problem(fx.g.net, fx.demand, fx.partition, true);
  const std::vector<Mask> array =
      build_side_array(side, fx.assignments, fx.demand.rate);
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

}  // namespace
}  // namespace streamrel
