#include "streamrel/reliability/bounds.hpp"

#include <gtest/gtest.h>

#include "streamrel/core/reliability_facade.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/reliability/naive.hpp"
#include "test_support.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

TEST(Bounds, TightOnSeriesPath) {
  // One routing covering everything; the single-edge cuts give the exact
  // upper bound only when one link dominates, but the envelope always
  // holds and the lower bound is exact for a path.
  const FlowNetwork net = testing::series_pair(0.1, 0.2);
  const FlowDemand demand{0, 2, 1};
  const ReliabilityBounds bounds = reliability_bounds(net, demand);
  const double exact = reliability_naive(net, demand).reliability;
  EXPECT_TRUE(bounds.contains(exact));
  EXPECT_NEAR(bounds.lower, exact, 1e-12);  // the path IS the routing
  EXPECT_NEAR(bounds.upper, 0.8, 1e-12);    // best single-edge cut
}

TEST(Bounds, TightOnParallelBundle) {
  const FlowNetwork net = testing::parallel_pair(0.3, 0.4);
  const FlowDemand demand{0, 1, 1};
  const ReliabilityBounds bounds = reliability_bounds(net, demand);
  const double exact = reliability_naive(net, demand).reliability;
  // The two parallel links are both the only cut (upper exact) and two
  // disjoint routings (lower exact).
  EXPECT_NEAR(bounds.lower, exact, 1e-12);
  EXPECT_NEAR(bounds.upper, exact, 1e-12);
}

TEST(Bounds, EnvelopeHoldsOnRandomNetworks) {
  Xoshiro256 rng(13579);
  int nontrivial = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const EdgeKind kind = (trial % 2 == 0) ? EdgeKind::kUndirected
                                           : EdgeKind::kDirected;
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(2, 7)),
        static_cast<int>(rng.uniform_int(1, 12)), {1, 3}, {0.05, 0.5}, kind);
    const FlowDemand demand{g.source, g.sink, rng.uniform_int(1, 2)};
    const ReliabilityBounds bounds = reliability_bounds(g.net, demand);
    const double exact = reliability_naive(g.net, demand).reliability;
    ASSERT_TRUE(bounds.contains(exact))
        << "trial " << trial << ": [" << bounds.lower << ", " << bounds.upper
        << "] vs " << exact;
    if (bounds.lower > 0.0 && bounds.upper < 1.0) ++nontrivial;
  }
  EXPECT_GT(nontrivial, 10);  // the bounds actually bite
}

TEST(Bounds, InfeasibleDemandCollapsesToZero) {
  const GeneratedNetwork g = path_network(3, 1, 0.1);
  const ReliabilityBounds bounds =
      reliability_bounds(g.net, {g.source, g.sink, 2});
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
}

TEST(Bounds, DisconnectedNetworkIsZero) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  const ReliabilityBounds bounds = reliability_bounds(net, {0, 3, 1});
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
}

TEST(Bounds, PerfectLinksGiveCertainty) {
  const GeneratedNetwork g = parallel_links(3, 1, 0.0);
  const ReliabilityBounds bounds =
      reliability_bounds(g.net, {g.source, g.sink, 1});
  EXPECT_DOUBLE_EQ(bounds.lower, 1.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 1.0);
}

TEST(Bounds, WorksBeyondTheMaskLimit) {
  // 70 parallel links at p = 0.5: both bounds stay valid without any
  // exhaustive enumeration (cut of size 70 is skipped; min-capacity cut
  // keeps the upper bound at 1, routings push the lower bound up).
  FlowNetwork net(2);
  for (int i = 0; i < 70; ++i) net.add_undirected_edge(0, 1, 1, 0.5);
  const ReliabilityBounds bounds = reliability_bounds(net, {0, 1, 1});
  EXPECT_GT(bounds.lower, 0.9999);
  EXPECT_LE(bounds.lower, bounds.upper);
}

TEST(Bounds, ReportsFamilySizes) {
  const GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  const ReliabilityBounds bounds =
      reliability_bounds(g.net, {g.source, g.sink, 1});
  EXPECT_GT(bounds.cuts_used, 0);
  EXPECT_EQ(bounds.routings_used, 1);  // the bridge blocks a second routing
}

TEST(Bounds, BridgeCutDominatesUpperBound) {
  // With a bridge at p = 0.3, the cut {bridge} bounds R above by 0.7.
  GeneratedNetwork g = make_fig2_bridge_graph(0.05);
  g.net.set_failure_prob(8, 0.3);
  const ReliabilityBounds bounds =
      reliability_bounds(g.net, {g.source, g.sink, 1});
  EXPECT_LE(bounds.upper, 0.7 + 1e-12);
}

// The service benchmark's instance shape: two 9-node clusters with 8
// extra links each, joined by 2 crossing links; 34 links in all.
GeneratedNetwork svcbench_shaped(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = params.nodes_t = 9;
  params.extra_edges_s = params.extra_edges_t = 8;
  params.bottleneck_caps = {2, 3};
  return clustered_bottleneck(rng, params);
}

// min over the family of P(surviving capacity across C >= d), computed
// independently of bounds.cpp.
double family_upper_bound(const FlowNetwork& net, Capacity rate,
                          const std::vector<std::vector<EdgeId>>& cuts) {
  double upper = 1.0;
  for (const auto& cut : cuts) {
    double survive = 0.0;
    for (Mask alive = 0; alive < (Mask{1} << cut.size()); ++alive) {
      Capacity capacity = 0;
      double prob = 1.0;
      for (std::size_t i = 0; i < cut.size(); ++i) {
        const Edge& e = net.edge(cut[i]);
        const bool up = test_bit(alive, static_cast<int>(i));
        if (up) capacity += e.capacity;
        prob *= up ? 1.0 - e.failure_prob : e.failure_prob;
      }
      if (capacity >= rate) survive += prob;
    }
    upper = std::min(upper, survive);
  }
  return upper;
}

TEST(Bounds, SvcbenchShapedUpperBeatsExhaustiveFamily) {
  const BoundsOptions options;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const GeneratedNetwork g = svcbench_shaped(seed);
    const FlowDemand demand{g.source, g.sink, 2};
    const ReliabilityBounds bounds = reliability_bounds(g.net, demand);
    const SolveReport exact = compute_reliability(g.net, demand);
    ASSERT_EQ(exact.result.status, SolveStatus::kExact);
    EXPECT_TRUE(bounds.contains(exact.result.reliability))
        << "seed " << seed << ": [" << bounds.lower << ", " << bounds.upper
        << "] vs " << exact.result.reliability;

    // The exhaustive subset scan's family in (size, colex) order, capped
    // at 100k subsets: a prefix of the complete family, as the scan's
    // 5M-subset cap left it partway through size 7 on these networks.
    CutEnumerationOptions enum_opts;
    enum_opts.max_size = options.max_cut_size;
    enum_opts.max_results = options.max_cuts;
    std::vector<std::vector<EdgeId>> family = testing::exhaustive_minimal_cutsets(
        g.net, g.source, g.sink, enum_opts, 100'000);
    EXPECT_GE(bounds.cuts_used, static_cast<int>(family.size()) + 2);
    family.push_back(min_cut(g.net, g.source, g.sink).edges);
    family.push_back(min_cardinality_cut(g.net, g.source, g.sink).edges);
    EXPECT_LE(bounds.upper,
              family_upper_bound(g.net, demand.rate, family) + 1e-12)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace streamrel
