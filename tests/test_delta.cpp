#include "streamrel/graph/delta.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/query_session.hpp"
#include "streamrel/core/side_array.hpp"
#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/graph/compiled.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

// ---------------------------------------------------------------- unit

TEST(NetworkDelta, ClassifiesByStrongestEdit) {
  NetworkDelta d;
  EXPECT_EQ(d.classify(), DeltaClass::kProbabilityOnly);
  d.set_failure_prob(0, 0.1);
  EXPECT_EQ(d.classify(), DeltaClass::kProbabilityOnly);
  d.set_capacity(0, 2);
  EXPECT_EQ(d.classify(), DeltaClass::kCapacityOnly);
  d.remove_edge(1);
  EXPECT_EQ(d.classify(), DeltaClass::kTopology);
}

TEST(NetworkDelta, ValidationLeavesNetworkUntouched) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.2);
  const FlowNetwork before = net;

  NetworkDelta bad_edge;
  bad_edge.set_failure_prob(9, 0.5);
  EXPECT_THROW(apply_delta_in_place(net, bad_edge), std::invalid_argument);

  NetworkDelta bad_prob;
  bad_prob.set_failure_prob(0, 1.0);
  EXPECT_THROW(apply_delta_in_place(net, bad_prob), std::invalid_argument);

  NetworkDelta bad_cap;
  bad_cap.set_capacity(0, -1);
  EXPECT_THROW(apply_delta_in_place(net, bad_cap), std::invalid_argument);

  NetworkDelta dup_remove;
  dup_remove.remove_edge(0).remove_edge(0);
  EXPECT_THROW(apply_delta_in_place(net, dup_remove), std::invalid_argument);

  NetworkDelta edit_removed;
  edit_removed.remove_edge(0).set_capacity(0, 3);
  EXPECT_THROW(apply_delta_in_place(net, edit_removed), std::invalid_argument);

  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    EXPECT_EQ(net.edge(e).failure_prob, before.edge(e).failure_prob);
    EXPECT_EQ(net.edge(e).capacity, before.edge(e).capacity);
  }
}

TEST(NetworkDelta, NodeJoinWiresEdgesToTheNewNode) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);

  NetworkDelta join;
  const NodeId peer = join.add_node(net.num_nodes());
  EXPECT_EQ(peer, 2);
  join.add_edge(0, peer, 2, 0.05);
  join.add_edge(peer, 1, 2, 0.05);

  const DeltaApplication app = apply_delta_in_place(net, join);
  EXPECT_EQ(app.applied, DeltaClass::kTopology);
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_edges(), 3);
  EXPECT_EQ(net.edge(1).u, 0);
  EXPECT_EQ(net.edge(1).v, 2);
  EXPECT_EQ(net.edge(2).u, 2);
  EXPECT_EQ(net.edge(2).v, 1);
}

TEST(NetworkDelta, NodeLeaveRemovesIncidentEdgesIncludingSameDeltaAdds) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);  // survives
  net.add_undirected_edge(1, 2, 1, 0.1);  // dies with node 2
  net.add_undirected_edge(2, 3, 1, 0.1);  // dies with node 2

  NetworkDelta leave;
  leave.add_edge(2, 3, 1, 0.2);  // added AND killed by the same delta
  leave.add_edge(0, 3, 1, 0.3);  // added and survives
  leave.remove_node(2);

  const DeltaApplication app = apply_delta_in_place(net, leave);
  EXPECT_EQ(net.num_nodes(), 3);
  ASSERT_EQ(net.num_edges(), 2);
  // Survivors keep relative order and renumber densely; node 3 -> 2.
  EXPECT_EQ(app.node_map, (std::vector<NodeId>{0, 1, kInvalidNode, 2}));
  EXPECT_EQ(app.edge_map,
            (std::vector<EdgeId>{0, kInvalidEdge, kInvalidEdge}));
  EXPECT_EQ(net.edge(1).u, 0);
  EXPECT_EQ(net.edge(1).v, 2);
  EXPECT_EQ(net.edge(1).failure_prob, 0.3);
}

TEST(DeltaJournal, LinksSuccessorsToParents) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.1);
  net.add_undirected_edge(1, 2, 2, 0.1);
  const auto root = net.compile();

  NetworkDelta cap;
  cap.set_capacity(0, 5);
  const CompiledDelta first = root->apply_delta(cap);
  NetworkDelta topo;
  topo.remove_edge(1);
  const CompiledDelta second = first.snapshot->apply_delta(topo);

  EXPECT_EQ(first.snapshot->parent_structure_id(), root->structure_id());
  EXPECT_EQ(second.snapshot->parent_structure_id(),
            first.snapshot->structure_id());

  const auto record =
      DeltaJournal::instance().lookup(second.snapshot->structure_id());
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->delta_class, DeltaClass::kTopology);
  EXPECT_EQ(record->edges_removed, 1);

  const auto chain =
      DeltaJournal::instance().chain(second.snapshot->structure_id());
  ASSERT_GE(chain.size(), 2u);
  EXPECT_EQ(chain[0].structure_id, second.snapshot->structure_id());
  EXPECT_EQ(chain[1].structure_id, first.snapshot->structure_id());
}

TEST(DeltaSolveHint, SmallAndAccumulationOnly) {
  DeltaSolveHint hint;
  hint.delta_class = DeltaClass::kProbabilityOnly;
  hint.touched_edges = {0, 1};
  EXPECT_TRUE(hint.accumulation_only());
  EXPECT_TRUE(hint.small());
  hint.delta_class = DeltaClass::kCapacityOnly;
  EXPECT_FALSE(hint.accumulation_only());
  EXPECT_TRUE(hint.small());
  hint.touched_edges.assign(9, 0);
  EXPECT_FALSE(hint.small());
  hint.delta_class = DeltaClass::kTopology;
  hint.touched_edges.clear();
  EXPECT_FALSE(hint.small());
}

// ------------------------------------------------------ sharing rules

TEST(CompiledDelta, ProbabilityDeltaSharesTheWholeStructure) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.2);
  const auto root = net.compile();

  NetworkDelta d;
  d.set_failure_prob(1, 0.33);
  const CompiledDelta out = root->apply_delta(d);
  EXPECT_EQ(out.applied, DeltaClass::kProbabilityOnly);
  EXPECT_EQ(out.snapshot->structure_id(), root->structure_id());
  EXPECT_EQ(&out.snapshot->structure(), &root->structure());
  EXPECT_EQ(out.snapshot->failure_prob(1), 0.33);
  EXPECT_EQ(root->failure_prob(1), 0.2);  // the parent is immutable
  EXPECT_TRUE(out.touched_edges.empty());
}

TEST(CompiledDelta, CapacityDeltaSharesTopologyAndReportsTouched) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.2);
  const auto root = net.compile();

  NetworkDelta d;
  d.set_capacity(1, 4);
  const CompiledDelta out = root->apply_delta(d);
  EXPECT_EQ(out.applied, DeltaClass::kCapacityOnly);
  EXPECT_NE(out.snapshot->structure_id(), root->structure_id());
  EXPECT_EQ(&out.snapshot->topology(), &root->topology());  // CSR shared
  EXPECT_EQ(out.snapshot->edge_capacity(1), 4);
  EXPECT_EQ(root->edge_capacity(1), 1);
  EXPECT_EQ(out.touched_edges, (std::vector<EdgeId>{1}));
}

// ------------------------------------------- the 200-graph bitwise sweep

void expect_bitwise_equal(const CompiledNetwork& a, const CompiledNetwork& b) {
  ASSERT_EQ(a.topology().num_nodes, b.topology().num_nodes);
  EXPECT_EQ(a.topology().u, b.topology().u);
  EXPECT_EQ(a.topology().v, b.topology().v);
  EXPECT_EQ(a.topology().kind, b.topology().kind);
  EXPECT_EQ(a.topology().offsets, b.topology().offsets);
  EXPECT_EQ(a.topology().incident, b.topology().incident);
  EXPECT_EQ(a.structure().capacity, b.structure().capacity);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    // Bitwise on all three probability columns, including the
    // precomputed logs (copied, never recomputed, for untouched edges).
    EXPECT_EQ(a.failure_prob(e), b.failure_prob(e));
    EXPECT_EQ(a.log_failure(e), b.log_failure(e));
    EXPECT_EQ(a.log_survival(e), b.log_survival(e));
  }
}

// One random edit batch valid against `net`, never touching s or t.
NetworkDelta random_delta(Xoshiro256& rng, const FlowNetwork& net, NodeId s,
                          NodeId t) {
  NetworkDelta d;
  const auto random_edge = [&] {
    return static_cast<EdgeId>(
        rng.uniform_below(static_cast<std::uint64_t>(net.num_edges())));
  };
  const double roll = rng.uniform01();
  if (roll < 0.40) {
    const int edits = 1 + static_cast<int>(rng.uniform_below(2));
    for (int i = 0; i < edits; ++i) {
      d.set_failure_prob(random_edge(), rng.uniform_real(0.0, 0.5));
    }
  } else if (roll < 0.70) {
    d.set_capacity(random_edge(),
                   static_cast<Capacity>(1 + rng.uniform_below(3)));
  } else if (roll < 0.85) {
    NodeId u = static_cast<NodeId>(
        rng.uniform_below(static_cast<std::uint64_t>(net.num_nodes())));
    NodeId v = rng.bernoulli(0.3) ? d.add_node(net.num_nodes())
                                  : static_cast<NodeId>(rng.uniform_below(
                                        static_cast<std::uint64_t>(
                                            net.num_nodes())));
    if (u == v) v = d.add_node(net.num_nodes());
    d.add_edge(u, v, static_cast<Capacity>(1 + rng.uniform_below(2)),
               rng.uniform_real(0.01, 0.4));
  } else if (net.num_nodes() > 4 && rng.bernoulli(0.5)) {
    NodeId victim = s;
    while (victim == s || victim == t) {
      victim = static_cast<NodeId>(
          rng.uniform_below(static_cast<std::uint64_t>(net.num_nodes())));
    }
    d.remove_node(victim);
  } else if (net.num_edges() > 2) {
    d.remove_edge(random_edge());
  } else {
    d.set_failure_prob(random_edge(), rng.uniform_real(0.0, 0.5));
  }
  return d;
}

TEST(DeltaSweep, TwoHundredSeededGraphsStayBitwiseEqualToFromScratch) {
  for (int trial = 0; trial < 200; ++trial) {
    Xoshiro256 rng(mix_seed(0xDE17A, static_cast<std::uint64_t>(trial)));
    const int nodes = 5 + trial % 4;
    GeneratedNetwork gen =
        random_connected(rng, nodes, 2 + trial % 3, {1, 2}, {0.02, 0.3});
    FlowNetwork ref = gen.net;  // evolved from scratch every step
    NodeId s = gen.source;
    NodeId t = gen.sink;
    auto snap = ref.compile();          // evolved via CSR patches
    QuerySession session(ref);          // evolved via cut-scoped deltas

    for (int step = 0; step < 6; ++step) {
      const NetworkDelta delta = random_delta(rng, ref, s, t);

      // Snapshot patch vs from-scratch rebuild + compile.
      const CompiledDelta patched = snap->apply_delta(delta);
      const DeltaApplication rebuilt = apply_delta_in_place(ref, delta);
      ASSERT_EQ(patched.applied, rebuilt.applied);
      ASSERT_EQ(patched.node_map, rebuilt.node_map);
      ASSERT_EQ(patched.edge_map, rebuilt.edge_map);
      const auto cold = ref.compile();
      {
        SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                     std::to_string(step));
        expect_bitwise_equal(*patched.snapshot, *cold);
      }
      if (patched.applied == DeltaClass::kProbabilityOnly) {
        EXPECT_EQ(patched.snapshot->structure_id(), snap->structure_id());
      } else {
        EXPECT_EQ(patched.snapshot->parent_structure_id(),
                  snap->structure_id());
      }
      snap = patched.snapshot;

      // Session path: scoped invalidation must answer bitwise-equal to a
      // cold solve on the rebuilt network, at every step.
      const DeltaOutcome outcome = session.apply_delta(delta);
      ASSERT_EQ(outcome.applied, rebuilt.applied);
      if (outcome.applied == DeltaClass::kTopology) {
        s = outcome.node_map[static_cast<std::size_t>(s)];
        t = outcome.node_map[static_cast<std::size_t>(t)];
        ASSERT_NE(s, kInvalidNode);
        ASSERT_NE(t, kInvalidNode);
      }
      const FlowDemand demand{s, t, 1 + step % 2};
      const double warm = session.solve(demand).result.reliability;
      const double cold_r =
          compute_reliability(ref, demand).result.reliability;
      ASSERT_EQ(warm, cold_r)
          << "trial " << trial << " step " << step;
    }
  }
}

// ---------------------------------------------- salvage bitwise equality

TEST(SideReuse, AdoptedSideArraysAndDistributionsAreBitwise) {
  Xoshiro256 rng(7);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  const GeneratedNetwork gen = clustered_bottleneck(rng, params);
  const FlowDemand demand{gen.source, gen.sink, 2};

  const auto choice =
      find_best_partition(gen.net, demand.source, demand.sink);
  ASSERT_TRUE(choice.has_value());
  const BottleneckArtifacts fresh =
      build_bottleneck_artifacts(gen.net, demand, choice->partition);
  ASSERT_TRUE(fresh.usable());

  // Offer side_s back as a salvage: the rebuild must adopt it verbatim
  // and still produce a bitwise-identical sink side and distributions.
  SideReuse reuse{fresh.side_s, fresh.array_s};
  const BottleneckArtifacts adopted = build_bottleneck_artifacts(
      gen.net, demand, choice->partition, {}, nullptr, nullptr, nullptr,
      &reuse, nullptr);
  ASSERT_TRUE(adopted.usable());
  EXPECT_EQ(adopted.array_s, fresh.array_s);
  EXPECT_EQ(adopted.array_t, fresh.array_t);

  const MaskDistribution fresh_s =
      bucket_side_array(fresh.side_s, fresh.array_s);
  const MaskDistribution adopted_s =
      bucket_side_array(adopted.side_s, adopted.array_s);
  EXPECT_EQ(fresh_s.buckets, adopted_s.buckets);
  EXPECT_EQ(fresh_s.total, adopted_s.total);
}

}  // namespace
}  // namespace streamrel
