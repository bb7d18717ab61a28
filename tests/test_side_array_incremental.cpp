// The fold of a side array into its mask distribution, against a direct
// per-configuration reference and with perfect (p = 0) links.

#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "streamrel/graph/generators.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

TEST(BucketDistributionStreamed, MatchesDirectFold) {
  Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    ClusteredParams params;
    params.nodes_s = 4 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_links = 2;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const AssignmentSet assignments =
        enumerate_assignments(g.net, partition, 2, {AssignmentMode::kAuto});
    if (assignments.size() == 0) continue;
    const SideProblem side =
        make_side_problem(g.net, {g.source, g.sink, 2}, partition, true);
    const std::vector<Mask> array = build_side_array(side, assignments, 2);

    const MaskDistribution dist =
      bucket_side_array(side, slab_form(array, side.view.num_edges()));
    // Reference fold: direct per-configuration products, numeric order.
    const std::vector<double> probs = side.view.failure_probs();
    std::unordered_map<Mask, double> reference;
    for (Mask config = 0; config < static_cast<Mask>(array.size());
         ++config) {
      reference[array[static_cast<std::size_t>(config)]] +=
          config_probability(probs, config);
    }
    ASSERT_EQ(dist.buckets.size(), reference.size()) << "trial " << trial;
    for (const auto& [mask, p] : dist.buckets) {
      ASSERT_TRUE(reference.count(mask));
      EXPECT_NEAR(p, reference[mask], 1e-12) << "trial " << trial;
    }
    EXPECT_NEAR(dist.total, 1.0, 1e-12);
  }
}

TEST(BucketDistributionStreamed, HandlesZeroFailureProbabilities) {
  // Perfect links make dead-configurations probability 0; the streamed
  // ratio update must not divide by zero.
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.0);  // perfect link
  net.add_undirected_edge(1, 2, 2, 0.25);
  net.add_undirected_edge(0, 1, 1, 0.0);  // second perfect link
  net.add_undirected_edge(1, 2, 1, 0.5);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 2, {true, true, false});
  const FlowDemand demand{0, 2, 1};
  const AssignmentSet assignments =
      enumerate_assignments(net, partition, 1, {AssignmentMode::kAuto});
  ASSERT_GT(assignments.size(), 0);
  const SideProblem side = make_side_problem(net, demand, partition, true);
  const std::vector<Mask> array = build_side_array(side, assignments, 1);
  const MaskDistribution dist =
      bucket_side_array(side, slab_form(array, side.view.num_edges()));
  EXPECT_NEAR(dist.total, 1.0, 1e-12);
  for (const auto& [mask, p] : dist.buckets) EXPECT_GE(p, 0.0);
}

}  // namespace
}  // namespace streamrel
