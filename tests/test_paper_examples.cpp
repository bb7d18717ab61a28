// Consolidated reproduction of every worked example, table, and figure in
// the paper (experiment rows E1-E8 of DESIGN.md). Each test states the
// paper artifact it reproduces.

#include <gtest/gtest.h>

#include "streamrel/core/accumulate.hpp"
#include "streamrel/core/assignments.hpp"
#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/side_array.hpp"
#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/maxflow/residual_graph.hpp"
#include "streamrel/p2p/scenario.hpp"
#include "streamrel/reliability/naive.hpp"
#include "test_support.hpp"

namespace streamrel {
namespace {

using testing::kTol;

// --- E1: Fig. 1 — the naive method ---------------------------------------
TEST(PaperExamples, Fig1NaiveEnumerationAccountsEveryConfiguration) {
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const auto result = reliability_naive(g.net, demand);
  // 2^|E| configurations, one max-flow each — exactly the Fig. 1 recipe.
  EXPECT_EQ(result.configurations(), Mask{1} << 9);
  EXPECT_EQ(result.maxflow_calls(), Mask{1} << 9);
  // And the sum of admitting-configuration probabilities matches an
  // independently coded brute force.
  EXPECT_NEAR(result.reliability,
              testing::brute_force_reliability(g.net, demand), kTol);
}

// --- E2: Fig. 2 + Equation (1) — graph with a bridge ----------------------
TEST(PaperExamples, Fig2BridgeEquationOne) {
  const GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 1};
  // e9 (edge id 8) is a bridge whose removal separates s from t.
  EXPECT_EQ(find_bridges(g.net), std::vector<EdgeId>{8});
  EXPECT_TRUE(removal_disconnects(g.net, g.source, g.sink, {8}));

  // r = r(G_s) * (1 - p(e*)) * r(G_t)  (Equation 1).
  const double naive = reliability_naive(g.net, demand).reliability;
  EXPECT_NEAR(reliability_bridge_formula(g.net, demand, 8), naive, kTol);

  // The k = 1 decomposition reduces to the same expression.
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_NEAR(reliability_bottleneck(g.net, demand, partition).reliability,
              naive, kTol);
}

TEST(PaperExamples, Fig2BridgeCapacityBelowDemandIsTriviallyZero) {
  // Paper §III-A: "If c(e*) < d, the reliability ... is trivially zero."
  const GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  EXPECT_DOUBLE_EQ(
      reliability_bridge_formula(g.net, {g.source, g.sink, 2}, 8), 0.0);
  EXPECT_DOUBLE_EQ(
      reliability_naive(g.net, {g.source, g.sink, 2}).reliability, 0.0);
}

// --- E3: Example 1 — the assignment set for d=5, c=(3,3,3) ---------------
TEST(PaperExamples, Example1TwelveAssignments) {
  FlowNetwork net(2);
  for (int i = 0; i < 3; ++i) net.add_undirected_edge(0, 1, 3, 0.1);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 1, {true, false});
  const AssignmentSet set = enumerate_assignments(
      net, partition, 5, {AssignmentMode::kForwardOnly});
  // The paper's D, all 12 tuples.
  const std::vector<std::vector<Capacity>> paper_d{
      {0, 2, 3}, {0, 3, 2}, {1, 1, 3}, {1, 2, 2}, {1, 3, 1}, {2, 0, 3},
      {2, 1, 2}, {2, 2, 1}, {2, 3, 0}, {3, 0, 2}, {3, 1, 1}, {3, 2, 0}};
  ASSERT_EQ(set.size(), 12);
  for (const auto& tuple : paper_d) {
    bool found = false;
    for (const Assignment& a : set.assignments) found |= a.usage == tuple;
    EXPECT_TRUE(found) << "missing paper assignment";
  }
}

// --- E4: Fig. 3 + Example 2 — the side-array data structure --------------
TEST(PaperExamples, Example2ArrayBitSemantics) {
  // "If the i-th element has value 110000000000, the i-th failure
  // configuration admits delivery under the first and second assignments."
  // Reproduce the structure on the Fig.-4 graph: the array has one
  // |D|-bit element per configuration, bit j set iff assignment j is
  // realized.
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet assignments =
      enumerate_assignments(g.net, partition, 2, {});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);
  const std::vector<Mask> array = build_side_array(side, assignments, 2);
  ASSERT_EQ(array.size(), Mask{1} << 5);  // 2^|E_s| elements
  for (Mask config = 0; config < (Mask{1} << 5); ++config) {
    // Each element uses only |D| bits.
    EXPECT_EQ(array[static_cast<std::size_t>(config)] &
                  ~full_mask(assignments.size()),
              0u);
    // Bit j is an independent feasibility statement; verify against a
    // direct per-assignment max-flow for every configuration and bit.
    for (int j = 0; j < assignments.size(); ++j) {
      // Build the side check by hand: flow from s delivering usage[i] to
      // endpoint x_i must total d.
      ResidualGraph res(side.view.num_nodes() + 1);
      const NodeId super_sink = side.view.num_nodes();
      for (EdgeId id = 0; id < side.view.num_edges(); ++id) {
        if (!test_bit(config, id)) continue;
        const Capacity cap = side.view.edge_capacity(id);
        res.add_arc_pair(side.view.edge_u(id), side.view.edge_v(id), cap, cap);
      }
      const auto& usage =
          assignments.assignments[static_cast<std::size_t>(j)].usage;
      for (std::size_t i = 0; i < usage.size(); ++i) {
        res.add_arc_pair(side.endpoints[i], super_sink, usage[i], 0);
      }
      DinicSolver solver;
      const bool feasible = solver.solve(res, side.anchor, super_sink, 2) >= 2;
      EXPECT_EQ(test_bit(array[static_cast<std::size_t>(config)], j),
                feasible)
          << "config " << config << " assignment " << j;
    }
  }
}

// --- E5: Fig. 4 + Example 3 — the two-bottleneck graph --------------------
TEST(PaperExamples, Fig4GraphMatchesEveryStatementInTheText) {
  const GeneratedNetwork g = make_fig4_graph(0.1);
  // "a graph separated by two bottleneck links e1 and e2".
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_EQ(partition.k(), 2);
  EXPECT_TRUE(is_minimal_cutset(g.net, g.source, g.sink,
                                partition.crossing_edges));
  // "the graph admits a flow demand of amount two ... when all links are
  // available".
  EXPECT_GE(max_flow(g.net, g.source, g.sink), 2);
  // "we can consider three assignments ... D = {(2,0), (1,1), (0,2)}".
  const AssignmentSet assignments =
      enumerate_assignments(g.net, partition, 2, {});
  ASSERT_EQ(assignments.size(), 3);
}

TEST(PaperExamples, Example3DirectMultiplicationFailsButAlgorithmIsExact) {
  // The point of Example 3: assignment sets realized by configurations
  // "intersect with each other in a complicated manner", so Eq.-1-style
  // multiplication is wrong; the accumulation algorithm stays exact.
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  EXPECT_NEAR(reliability_bottleneck(g.net, demand, partition).reliability,
              reliability_naive(g.net, demand).reliability, kTol);
}

// --- E6: Fig. 5 — three failure configurations ----------------------------
TEST(PaperExamples, Fig5ConfigurationsRealizeTheThreeStatedSets) {
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet assignments =
      enumerate_assignments(g.net, partition, 2, {});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);
  const std::vector<Mask> array = build_side_array(side, assignments, 2);
  const Fig5Configs configs = fig5_source_side_configs();

  auto realized_set = [&](Mask config) {
    std::vector<std::vector<Capacity>> out;
    for (int j = 0; j < assignments.size(); ++j) {
      if (test_bit(array[static_cast<std::size_t>(config)], j)) {
        out.push_back(assignments.assignments[static_cast<std::size_t>(j)].usage);
      }
    }
    return out;
  };
  // "the first configuration realizes two assignments (1,1) and (0,2)".
  EXPECT_EQ(realized_set(configs.a),
            (std::vector<std::vector<Capacity>>{{0, 2}, {1, 1}}));
  // "the second configuration realizes one assignment (1,1)".
  EXPECT_EQ(realized_set(configs.b),
            (std::vector<std::vector<Capacity>>{{1, 1}}));
  // "the third ... realizes three assignments (1,1), (2,0) and (0,2)".
  EXPECT_EQ(realized_set(configs.c),
            (std::vector<std::vector<Capacity>>{{0, 2}, {1, 1}, {2, 0}}));
}

// --- E7: Definition 1 + Examples 4 & 5 — supporting subsets ---------------
TEST(PaperExamples, Example4SupportRelation) {
  // "{e1, e3} supports assignments (2,0,1) and (3,0,4) but does not
  // support assignment (1,1,0)".
  AssignmentSet set;
  set.assignments = {Assignment{{2, 0, 1}}, Assignment{{3, 0, 4}},
                     Assignment{{1, 1, 0}}};
  const Mask e1_e3 = mask_of({0, 2});
  EXPECT_EQ(set.supported_by(e1_e3), mask_of({0, 1}));
}

TEST(PaperExamples, Example5EightWayClassification) {
  AssignmentSet set;
  set.assignments = {Assignment{{1, 2, 0}}, Assignment{{2, 1, 0}},
                     Assignment{{1, 1, 1}}, Assignment{{0, 2, 1}},
                     Assignment{{2, 0, 1}}};
  // All eight subsets of {e1, e2, e3}, exactly as the paper lists them.
  EXPECT_EQ(set.supported_by(mask_of({0, 1, 2})), full_mask(5));  // = D
  EXPECT_EQ(set.supported_by(mask_of({0, 1})), mask_of({0, 1}));
  EXPECT_EQ(set.supported_by(mask_of({1, 2})), mask_of({3}));
  EXPECT_EQ(set.supported_by(mask_of({0, 2})), mask_of({4}));
  for (const Mask small : {mask_of({0}), mask_of({1}), mask_of({2}), Mask{0}}) {
    EXPECT_EQ(set.supported_by(small), 0u);  // "D_E = {} for |E| <= 1"
  }
}

// --- E8: Example 6 + Table I — the inclusion-exclusion accumulation -------
TEST(PaperExamples, Example6TableI) {
  // Table I: c1 -> {b1}, c2 -> {b2}, c3 -> {b1,b2}, c4 -> {b2},
  //          c5 -> {b1,b2}, c6 -> {b2}, c7 -> {b1}, c8 -> {}.
  // We give the configurations concrete probabilities and check the
  // paper's formulas digit for digit.
  const double pc[8] = {0.1, 0.2, 0.3, 0.4, 0.15, 0.25, 0.35, 0.25};
  MaskDistribution gs;
  gs.buckets = {{mask_of({0}), pc[0]},
                {mask_of({1}), pc[1] + pc[3]},
                {mask_of({0, 1}), pc[2]}};
  gs.total = 1.0;
  MaskDistribution gt;
  gt.buckets = {{mask_of({0, 1}), pc[4]},
                {mask_of({1}), pc[5]},
                {mask_of({0}), pc[6]},
                {0, pc[7]}};
  gt.total = 1.0;

  // p_{b1} = (p(c1)+p(c3)) (p(c5)+p(c7)).
  const double p_b1 = (pc[0] + pc[2]) * (pc[4] + pc[6]);
  // p_{b2} = (p(c2)+p(c3)+p(c4)) (p(c5)+p(c6)).
  const double p_b2 = (pc[1] + pc[2] + pc[3]) * (pc[4] + pc[5]);
  // p_{b1,b2} = p(c3) p(c5).
  const double p_b1b2 = pc[2] * pc[4];
  // r = p_{b1} + p_{b2} - p_{b1,b2}  (inclusion-exclusion).
  const double expected = p_b1 + p_b2 - p_b1b2;

  EXPECT_NEAR(joint_success_probability(
                  gs, gt, mask_of({0, 1}),
                  AccumulationStrategy::kPaperInclusionExclusion),
              expected, kTol);
  EXPECT_NEAR(joint_success_probability(gs, gt, mask_of({0, 1}),
                                        AccumulationStrategy::kZetaTransform),
              expected, kTol);
  EXPECT_NEAR(joint_success_probability(gs, gt, mask_of({0, 1}),
                                        AccumulationStrategy::kBucketProduct),
              expected, kTol);
}

// --- Equations (2) & (3) — the bottleneck configuration sum ---------------
TEST(PaperExamples, Equations2And3BottleneckSum) {
  // For the Fig.-4 graph, recompute R by hand from Eq. (3):
  //   R = sum over E'' of p_{E''} * r_{E''}
  // where p_{E''} comes from Eq. (2) and r_{E''} from the accumulation.
  const double p = 0.2;
  const GeneratedNetwork g = make_fig4_graph(p);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet assignments =
      enumerate_assignments(g.net, partition, 2, {});
  const SideProblem ss = make_side_problem(g.net, demand, partition, true);
  const SideProblem st = make_side_problem(g.net, demand, partition, false);
  const MaskDistribution ds = bucket_side_array(
      ss, slab_form(build_side_array(ss, assignments, 2), ss.view.num_edges()));
  const MaskDistribution dt = bucket_side_array(
      st, slab_form(build_side_array(st, assignments, 2), st.view.num_edges()));

  double by_hand = 0.0;
  for (Mask alive = 0; alive < 4; ++alive) {
    // Eq. (2): p_{E''} for the two bottleneck links.
    double p_cfg = 1.0;
    for (int i = 0; i < 2; ++i) p_cfg *= test_bit(alive, i) ? (1 - p) : p;
    const Mask allowed = assignments.supported_by(alive);
    if (allowed == 0) continue;
    by_hand += p_cfg * joint_success_probability(ds, dt, allowed);
  }
  EXPECT_NEAR(by_hand,
              reliability_bottleneck(g.net, demand, partition).reliability,
              kTol);
  EXPECT_NEAR(by_hand, reliability_naive(g.net, demand).reliability, kTol);
}

}  // namespace
}  // namespace streamrel
