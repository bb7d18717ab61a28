// Property tests for the CompiledNetwork snapshot and NetworkView
// zero-copy side views: the CSR columns must round-trip the builder
// exactly, views must reproduce a copied subnetwork's numbering bit for
// bit, and every cached/uncached solve path must agree bitwise.

#include "streamrel/graph/compiled.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "streamrel/core/engine.hpp"
#include "streamrel/core/query_session.hpp"
#include "streamrel/cuts/bottleneck.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/util/prng.hpp"
#include "test_support.hpp"

namespace streamrel {
namespace {

constexpr int kSeeds = 200;

// One graph per seed, cycling through the generator families and mixing
// directed and undirected link kinds.
GeneratedNetwork seeded_graph(int seed) {
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 7919u + 1);
  const EdgeKind kind =
      seed % 2 == 0 ? EdgeKind::kUndirected : EdgeKind::kDirected;
  const CapacityRange caps{1, 3};
  const ProbRange probs{0.01, 0.4};
  switch (seed % 4) {
    case 0:
      return random_multigraph(rng, 5 + seed % 5, 8 + seed % 7, caps, probs,
                               kind);
    case 1:
      return random_connected(rng, 6 + seed % 4, 2 + seed % 3, caps, probs,
                              kind);
    case 2: {
      ClusteredParams params;
      params.nodes_s = 4 + seed % 3;
      params.nodes_t = 4 + (seed / 4) % 3;
      params.bottleneck_links = 1 + seed % 3;
      params.kind = kind;
      return clustered_bottleneck(rng, params);
    }
    default:
      return small_world(rng, 8 + seed % 5, 4, 0.2, caps, probs);
  }
}

// A random node side containing at least one node; seeded per graph.
std::vector<bool> random_side(const FlowNetwork& net, int seed) {
  Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 104729u + 13);
  std::vector<bool> side(static_cast<std::size_t>(net.num_nodes()));
  for (std::size_t i = 0; i < side.size(); ++i) side[i] = rng.bernoulli(0.5);
  side[static_cast<std::size_t>(
      rng.uniform_below(static_cast<std::uint64_t>(net.num_nodes())))] = true;
  return side;
}

TEST(CompiledNetwork, CsrRoundTripMatchesBuilderAcrossSeededGraphs) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GeneratedNetwork g = seeded_graph(seed);
    const auto snapshot = g.net.compile();
    ASSERT_EQ(snapshot->num_nodes(), g.net.num_nodes()) << "seed " << seed;
    ASSERT_EQ(snapshot->num_edges(), g.net.num_edges()) << "seed " << seed;
    EXPECT_EQ(snapshot->fits_mask(), g.net.fits_mask());

    for (EdgeId id = 0; id < g.net.num_edges(); ++id) {
      const Edge& e = g.net.edge(id);
      EXPECT_EQ(snapshot->edge_u(id), e.u) << "seed " << seed;
      EXPECT_EQ(snapshot->edge_v(id), e.v);
      EXPECT_EQ(snapshot->edge_kind(id), e.kind);
      EXPECT_EQ(snapshot->edge_directed(id), e.directed());
      EXPECT_EQ(snapshot->edge_capacity(id), e.capacity);
      EXPECT_EQ(snapshot->failure_prob(id), e.failure_prob);
      EXPECT_EQ(snapshot->log_survival(id), std::log1p(-e.failure_prob));
      if (e.failure_prob > 0.0) {
        EXPECT_EQ(snapshot->log_failure(id), std::log(e.failure_prob));
      }
    }

    // The probability column is one contiguous span in edge-id order.
    const std::vector<double> expected_probs = g.net.failure_probs();
    const std::span<const double> probs = snapshot->failure_probs();
    ASSERT_EQ(probs.size(), expected_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], expected_probs[i]) << "seed " << seed;
    }

    // CSR incidence mirrors the builder's adjacency order exactly.
    for (NodeId n = 0; n < g.net.num_nodes(); ++n) {
      const std::vector<EdgeId>& expected = g.net.incident_edges(n);
      const std::span<const EdgeId> got = snapshot->incident_edges(n);
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i]) << "seed " << seed << " node " << n;
      }
    }
  }
}

TEST(CompiledNetwork, WithFailureProbOverlaysWithoutCopyingStructure) {
  const GeneratedNetwork g = seeded_graph(3);
  const auto base = g.net.compile();
  const auto overlay = base->with_failure_prob(0, 0.5);
  EXPECT_EQ(overlay->structure_id(), base->structure_id());
  EXPECT_EQ(&overlay->structure(), &base->structure());
  EXPECT_EQ(overlay->failure_prob(0), 0.5);
  EXPECT_EQ(overlay->log_survival(0), std::log1p(-0.5));
  EXPECT_EQ(base->failure_prob(0), g.net.edge(0).failure_prob);
  for (EdgeId id = 1; id < base->num_edges(); ++id) {
    EXPECT_EQ(overlay->failure_prob(id), base->failure_prob(id));
  }
  // A fresh compile of the same builder is a DIFFERENT structure: identity
  // is per snapshot lineage, never derived from contents.
  EXPECT_NE(g.net.compile()->structure_id(), base->structure_id());
  EXPECT_THROW((void)base->with_failure_prob(-1, 0.5), std::invalid_argument);
  EXPECT_THROW((void)base->with_failure_prob(0, 1.0), std::invalid_argument);
}

TEST(NetworkView, TranslationMatchesSubgraphAcrossSeededGraphs) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GeneratedNetwork g = seeded_graph(seed);
    const std::vector<bool> side = random_side(g.net, seed);
    const testing::CopiedSide sub = testing::copy_side(g.net, side);
    const NetworkView view(g.net.compile(), side);

    ASSERT_EQ(view.num_nodes(), sub.net.num_nodes()) << "seed " << seed;
    ASSERT_EQ(view.num_edges(), sub.net.num_edges()) << "seed " << seed;
    EXPECT_EQ(view.node_map(), sub.node_map);
    EXPECT_EQ(view.edge_map(), sub.edge_map);
    EXPECT_EQ(view.node_to_view(), sub.node_to_sub);
    EXPECT_EQ(view.edge_to_view(), sub.edge_to_sub);

    for (EdgeId id = 0; id < view.num_edges(); ++id) {
      const Edge& e = sub.net.edge(id);
      EXPECT_EQ(view.edge_u(id), e.u) << "seed " << seed;
      EXPECT_EQ(view.edge_v(id), e.v);
      EXPECT_EQ(view.edge_kind(id), e.kind);
      EXPECT_EQ(view.edge_capacity(id), e.capacity);
      EXPECT_EQ(view.failure_prob(id), e.failure_prob);
    }
    EXPECT_EQ(view.failure_probs(), sub.net.failure_probs());

    if (g.net.fits_mask()) {
      Xoshiro256 rng(static_cast<std::uint64_t>(seed) + 17);
      for (int trial = 0; trial < 16; ++trial) {
        const Mask original = rng() & full_mask(g.net.num_edges());
        const Mask projected = view.project_mask(original);
        EXPECT_EQ(projected, testing::copied_project_mask(sub, original))
            << "seed " << seed;
        EXPECT_EQ(view.lift_mask(projected),
                  testing::copied_lift_mask(sub, projected));
      }
    }
  }
}

TEST(NetworkView, ConfigResidualMatchesCopiedSubgraphMaxFlows) {
  // The residual built from a zero-copy view must lay out arcs exactly
  // as one built from the historical copied subnetwork: identical
  // max-flow values for every failure configuration.
  for (int seed = 0; seed < 40; ++seed) {
    const GeneratedNetwork g = seeded_graph(seed);
    const std::vector<bool> side = random_side(g.net, seed);
    const testing::CopiedSide sub = testing::copy_side(g.net, side);
    if (sub.net.num_edges() == 0 || !sub.net.fits_mask()) continue;

    ConfigResidual from_copy(sub.net);
    ConfigResidual from_view{NetworkView(g.net.compile(), side)};
    ASSERT_EQ(from_view.num_edges(), from_copy.num_edges());

    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 31 + 5);
    DinicSolver solver;
    for (int trial = 0; trial < 8; ++trial) {
      const Mask alive = rng() & full_mask(from_copy.num_edges());
      const auto s = static_cast<NodeId>(
          rng.uniform_below(static_cast<std::uint64_t>(sub.net.num_nodes())));
      const auto t = static_cast<NodeId>(
          rng.uniform_below(static_cast<std::uint64_t>(sub.net.num_nodes())));
      if (s == t) continue;
      from_copy.reset(alive);
      from_view.reset(alive);
      EXPECT_EQ(solver.solve(from_copy.graph(), s, t),
                solver.solve(from_view.graph(), s, t))
          << "seed " << seed << " mask " << alive;
    }
  }
}

TEST(NetworkView, WholeNetworkViewIsTheIdentityTranslation) {
  const GeneratedNetwork g = seeded_graph(8);
  const NetworkView view(g.net.compile());
  ASSERT_EQ(view.num_nodes(), g.net.num_nodes());
  ASSERT_EQ(view.num_edges(), g.net.num_edges());
  for (NodeId n = 0; n < g.net.num_nodes(); ++n) {
    EXPECT_EQ(view.original_node(n), n);
    EXPECT_EQ(view.view_node(n), n);
  }
  for (EdgeId id = 0; id < g.net.num_edges(); ++id) {
    EXPECT_EQ(view.original_edge(id), id);
    EXPECT_EQ(view.view_edge(id), id);
  }
}

TEST(NetworkView, RejectsMismatchedSideVector) {
  const GeneratedNetwork g = seeded_graph(2);
  const std::vector<bool> wrong(
      static_cast<std::size_t>(g.net.num_nodes()) + 1);
  EXPECT_THROW(NetworkView(g.net.compile(), wrong), std::invalid_argument);
}

// Every deterministic registered engine must give the SAME bits when run
// twice on the same instance — the snapshot/view plumbing may not
// introduce any run-to-run or cached-vs-cold divergence.
TEST(CompiledNetwork, EnginesAndSessionAgreeBitwiseOnSeededGraphs) {
  const EngineRegistry& registry = EngineRegistry::instance();
  for (int seed = 0; seed < 30; ++seed) {
    const GeneratedNetwork g = seeded_graph(seed);
    if (g.net.num_edges() > 14) continue;  // keep the naive engine fast
    const Capacity rate = 1 + seed % 2;
    const FlowDemand demand{g.source, g.sink, rate};

    const SolveReport facade = compute_reliability(g.net, demand);
    QuerySession session(g.net);
    const SolveReport cold = session.solve(demand);
    const SolveReport warm = session.solve(demand);
    EXPECT_EQ(cold.result.reliability, facade.result.reliability)
        << "seed " << seed;
    EXPECT_EQ(warm.result.reliability, facade.result.reliability)
        << "seed " << seed;

    for (const Engine* engine : registry.engines()) {
      if (!engine->applicable(g.net, demand)) continue;
      SolveReport first;
      try {
        first = engine->solve(g.net, demand, {}, nullptr);
      } catch (const std::invalid_argument&) {
        continue;  // e.g. no usable partition for the bottleneck engine
      }
      const SolveReport second = engine->solve(g.net, demand, {}, nullptr);
      EXPECT_EQ(first.result.reliability, second.result.reliability)
          << "seed " << seed << " engine " << engine->name();
    }
  }
}

TEST(CompiledNetwork, SnapshotReuseIsBitwiseEqualToOnTheFlyCompile) {
  for (int seed = 0; seed < 30; ++seed) {
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) + 1000);
    ClusteredParams params;
    params.nodes_s = 5;
    params.nodes_t = 5;
    params.bottleneck_links = 2;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const FlowDemand demand{g.source, g.sink, 2};
    const BottleneckResult cold =
        reliability_bottleneck(g.net, demand, partition);
    const BottleneckResult pinned = reliability_bottleneck(
        g.net, demand, partition, {}, nullptr, g.net.compile());
    EXPECT_EQ(cold.reliability, pinned.reliability) << "seed " << seed;
  }
}

TEST(CompiledNetwork, MergedMultiOriginNetworksCompileAndAgree) {
  // Multi-origin deployments reduce to the single-source model through
  // merge_sources; the snapshot path must carry the p = 0 feed links and
  // answer bitwise-identically through the session caches.
  for (int seed = 0; seed < 20; ++seed) {
    Xoshiro256 rng(static_cast<std::uint64_t>(seed) * 13 + 7);
    GeneratedNetwork g = random_connected(rng, 8, 4, {1, 2}, {0.05, 0.3});
    const std::vector<NodeId> servers = {g.source,
                                         g.source == 1 ? NodeId{2} : NodeId{1}};
    const NodeId super = merge_sources(g.net, servers);
    const FlowDemand demand{super, g.sink, 1};

    const auto snapshot = g.net.compile();
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const EdgeId feed =
          static_cast<EdgeId>(g.net.num_edges() - 1 -
                              static_cast<int>(servers.size() - 1 - i));
      EXPECT_EQ(snapshot->edge_u(feed), super);
      EXPECT_EQ(snapshot->failure_prob(feed), 0.0);
      EXPECT_TRUE(snapshot->edge_directed(feed));
    }

    SolveOptions options;
    options.use_reductions = false;  // p = 0 feed links would reduce away
    const SolveReport facade = compute_reliability(g.net, demand, options);
    QuerySession session(g.net);
    const SolveReport cached = session.solve(demand, options);
    EXPECT_EQ(cached.result.reliability, facade.result.reliability)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace streamrel
