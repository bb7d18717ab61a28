// The pieces under the side-array sweep: the streamed fold of a side
// array into its mask distribution, and the external-mode
// IncrementalMaxFlow engine that answers the sweep's residue.

#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "streamrel/graph/generators.hpp"
#include "streamrel/maxflow/incremental_dinic.hpp"
#include "streamrel/maxflow/maxflow.hpp"
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

// ---------------------------------------------------------------------------
// External-mode IncrementalMaxFlow: the side sweep's residue engine.

Capacity scratch_bounded_flow(const FlowNetwork& net,
                              const std::vector<ConfigResidual::SuperArc>&
                                  super_caps,
                              NodeId extra_u, NodeId extra_v, Mask alive,
                              Capacity limit) {
  // Rebuilds the same residual layout from scratch and solves bounded.
  ConfigResidual fresh(net);
  const NodeId s0 = fresh.add_super_node();
  const NodeId t1 = fresh.add_super_node();
  fresh.add_super_arc(s0, extra_u, 0, 0);
  fresh.add_super_arc(extra_v, t1, 0, 0);
  for (std::size_t i = 0; i < super_caps.size(); ++i) {
    fresh.set_super_arc(i, super_caps[i].cap_uv, super_caps[i].cap_vu);
  }
  fresh.reset(alive);
  DinicSolver dinic;
  return dinic.solve(fresh.graph(), s0, t1, limit);
}

TEST(IncrementalMaxFlowExternal, RandomTogglesAndSuperArcReconfigs) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    const GeneratedNetwork g = random_multigraph(
        rng, 5, 10, {1, 4}, {0.05, 0.3},
        trial % 2 == 0 ? EdgeKind::kUndirected : EdgeKind::kDirected);
    const int m = g.net.num_edges();
    const Capacity target = rng.uniform_int(1, 6);

    ConfigResidual residual(g.net);
    const NodeId s0 = residual.add_super_node();
    const NodeId t1 = residual.add_super_node();
    residual.add_super_arc(s0, g.source, 0, 0);
    residual.add_super_arc(g.sink, t1, 0, 0);
    residual.set_super_arc(0, target, 0);
    residual.set_super_arc(1, target, 0);

    Mask alive = full_mask(m);
    IncrementalMaxFlow inc(residual, s0, t1, target, alive);
    std::vector<ConfigResidual::SuperArc> caps{{0, target, 0},
                                               {0, target, 0}};
    for (int step = 0; step < 50; ++step) {
      if (rng.uniform_below(3) == 0) {
        // Reconfigure a super arc: grow, shrink, or zero it out.
        const std::size_t idx = rng.uniform_below(2);
        const Capacity cap = rng.uniform_int(0, target + 2);
        caps[idx].cap_uv = cap;
        inc.set_super_arc(idx, cap, 0);
      } else {
        const int e = static_cast<int>(
            rng.uniform_below(static_cast<std::uint64_t>(m)));
        alive ^= bit(e);
        inc.set_edge_alive(e, test_bit(alive, e));
      }
      const Capacity expect = scratch_bounded_flow(g.net, caps, g.source,
                                                   g.sink, alive, target);
      ASSERT_EQ(inc.flow_value(), expect)
          << "trial " << trial << " step " << step;
      ASSERT_EQ(inc.alive_mask(), alive);
    }
  }
}

TEST(IncrementalMaxFlowExternal, SyncToJumpsAcrossManyBits) {
  Xoshiro256 rng(555);
  const GeneratedNetwork g =
      random_multigraph(rng, 6, 12, {1, 3}, {0.05, 0.3});
  const int m = g.net.num_edges();
  const Capacity target = 3;

  ConfigResidual residual(g.net);
  const NodeId s0 = residual.add_super_node();
  const NodeId t1 = residual.add_super_node();
  residual.add_super_arc(s0, g.source, target, 0);
  residual.add_super_arc(g.sink, t1, target, 0);
  IncrementalMaxFlow inc(residual, s0, t1, target, full_mask(m));
  const std::vector<ConfigResidual::SuperArc> caps{{0, target, 0},
                                                   {0, target, 0}};
  for (int step = 0; step < 40; ++step) {
    const Mask config = rng() & full_mask(m);
    inc.sync_to(config);
    const Capacity expect =
        scratch_bounded_flow(g.net, caps, g.source, g.sink, config, target);
    ASSERT_EQ(inc.flow_value(), expect) << "step " << step;
  }
}

TEST(IncrementalMaxFlowExternal, SetTargetRaisesAndAdmitsStaysExact) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 3, 0.1);
  net.add_undirected_edge(1, 2, 3, 0.1);
  ConfigResidual residual(net);
  const NodeId s0 = residual.add_super_node();
  const NodeId t1 = residual.add_super_node();
  residual.add_super_arc(s0, 0, 1, 0);
  residual.add_super_arc(2, t1, 1, 0);
  IncrementalMaxFlow inc(residual, s0, t1, 1, full_mask(2));
  EXPECT_TRUE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 1);

  // Raising the target re-augments, but the super arcs cap the flow at 1.
  inc.set_target(2);
  EXPECT_FALSE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 1);

  // Widening the super arcs makes the higher target feasible again.
  inc.set_super_arc(0, 3, 0);
  inc.set_super_arc(1, 3, 0);
  EXPECT_TRUE(inc.admits());
  EXPECT_EQ(inc.flow_value(), 2);

  // Lowering the target keeps admits() exact.
  inc.set_target(1);
  EXPECT_TRUE(inc.admits());
}

TEST(IncrementalMaxFlowExternal, RejectsOversizedNetworksAndOwnedSuperArcs) {
  FlowNetwork big(3);
  for (int i = 0; i < 64; ++i) big.add_undirected_edge(0, 1, 1, 0.1);
  big.add_undirected_edge(1, 2, 1, 0.1);
  ConfigResidual residual(big);
  EXPECT_THROW(IncrementalMaxFlow(residual, 0, 2, 1, 0),
               std::invalid_argument);

  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  IncrementalMaxFlow owned(net, {0, 1, 1});
  EXPECT_THROW(owned.set_super_arc(0, 1, 0), std::logic_error);
}

}  // namespace
}  // namespace streamrel
