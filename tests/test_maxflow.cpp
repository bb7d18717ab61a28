#include "streamrel/maxflow/maxflow.hpp"

#include <gtest/gtest.h>

#include "streamrel/graph/generators.hpp"
#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/util/prng.hpp"
#include "test_support.hpp"

namespace streamrel {
namespace {

// Every graph case runs twice: through the library (Dinic behind the
// max-flow facade) and through the test-local Edmonds–Karp oracle, so a
// wrong expected value and a wrong solver cannot hide each other.
enum class Solver { kDinic, kOracle };

class MaxFlowSolverTest : public ::testing::TestWithParam<Solver> {
 protected:
  static bool dinic() { return GetParam() == Solver::kDinic; }

  static Capacity flow(const FlowNetwork& net, NodeId s, NodeId t,
                       Capacity limit = kUnbounded) {
    return dinic() ? max_flow(net, s, t, limit)
                   : testing::oracle_max_flow(net, s, t, limit);
  }

  static Capacity flow_masked(const FlowNetwork& net, Mask alive, NodeId s,
                              NodeId t) {
    return dinic() ? max_flow_masked(net, alive, s, t)
                   : testing::oracle_max_flow_masked(net, alive, s, t);
  }

  static bool admits(const FlowNetwork& net, Mask alive,
                     const FlowDemand& demand) {
    return dinic() ? admits_demand(net, alive, demand)
                   : testing::oracle_max_flow_masked(
                         net, alive, demand.source, demand.sink,
                         demand.rate) >= demand.rate;
  }

  static Capacity solve(ResidualGraph& g, NodeId s, NodeId t) {
    return dinic() ? DinicSolver().solve(g, s, t)
                   : testing::edmonds_karp(g, s, t);
  }
};

TEST_P(MaxFlowSolverTest, SingleDirectedEdge) {
  FlowNetwork net(2);
  net.add_directed_edge(0, 1, 5, 0.0);
  EXPECT_EQ(flow(net, 0, 1), 5);
  EXPECT_EQ(flow(net, 1, 0), 0);  // no reverse capacity
}

TEST_P(MaxFlowSolverTest, SingleUndirectedEdgeFlowsBothWays) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 5, 0.0);
  EXPECT_EQ(flow(net, 0, 1), 5);
  EXPECT_EQ(flow(net, 1, 0), 5);
}

TEST_P(MaxFlowSolverTest, SeriesTakesMinimum) {
  FlowNetwork net(3);
  net.add_directed_edge(0, 1, 7, 0.0);
  net.add_directed_edge(1, 2, 3, 0.0);
  EXPECT_EQ(flow(net, 0, 2), 3);
}

TEST_P(MaxFlowSolverTest, ParallelAddsUp) {
  FlowNetwork net(2);
  net.add_directed_edge(0, 1, 2, 0.0);
  net.add_directed_edge(0, 1, 3, 0.0);
  net.add_undirected_edge(0, 1, 4, 0.0);
  EXPECT_EQ(flow(net, 0, 1), 9);
}

TEST_P(MaxFlowSolverTest, ClassicCLRSInstance) {
  // Cormen et al. Fig. 26.6 flow network, max flow 23.
  FlowNetwork net(6);
  net.add_directed_edge(0, 1, 16, 0.0);
  net.add_directed_edge(0, 2, 13, 0.0);
  net.add_directed_edge(1, 3, 12, 0.0);
  net.add_directed_edge(2, 1, 4, 0.0);
  net.add_directed_edge(2, 4, 14, 0.0);
  net.add_directed_edge(3, 2, 9, 0.0);
  net.add_directed_edge(3, 5, 20, 0.0);
  net.add_directed_edge(4, 3, 7, 0.0);
  net.add_directed_edge(4, 5, 4, 0.0);
  EXPECT_EQ(flow(net, 0, 5), 23);
}

TEST_P(MaxFlowSolverTest, RequiresBackwardCancellation) {
  // The crossing pattern that defeats greedy path routing: the optimal
  // solution must cancel flow sent across the diagonal.
  FlowNetwork net(4);
  net.add_directed_edge(0, 1, 1, 0.0);
  net.add_directed_edge(0, 2, 1, 0.0);
  net.add_directed_edge(1, 2, 1, 0.0);
  net.add_directed_edge(1, 3, 1, 0.0);
  net.add_directed_edge(2, 3, 1, 0.0);
  EXPECT_EQ(flow(net, 0, 3), 2);
}

TEST_P(MaxFlowSolverTest, DisconnectedSinkGivesZero) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 5, 0.0);
  net.add_undirected_edge(2, 3, 5, 0.0);
  EXPECT_EQ(flow(net, 0, 3), 0);
}

TEST_P(MaxFlowSolverTest, MaskedEdgesExcluded) {
  FlowNetwork net(3);
  net.add_directed_edge(0, 1, 2, 0.0);
  net.add_directed_edge(1, 2, 2, 0.0);
  net.add_directed_edge(0, 2, 1, 0.0);
  EXPECT_EQ(flow_masked(net, 0b111, 0, 2), 3);
  EXPECT_EQ(flow_masked(net, 0b100, 0, 2), 1);
  EXPECT_EQ(flow_masked(net, 0b011, 0, 2), 2);
  EXPECT_EQ(flow_masked(net, 0b000, 0, 2), 0);
}

TEST_P(MaxFlowSolverTest, BoundedSolveReachesLimit) {
  FlowNetwork net(2);
  for (int i = 0; i < 6; ++i) net.add_directed_edge(0, 1, 1, 0.0);
  // Bounded runs report at least the limit when more is available.
  EXPECT_GE(flow(net, 0, 1, /*limit=*/3), 3);
  EXPECT_EQ(flow(net, 0, 1, /*limit=*/100), 6);
}

TEST_P(MaxFlowSolverTest, AdmitsDemand) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.1);
  net.add_undirected_edge(1, 2, 2, 0.1);
  EXPECT_TRUE(admits(net, 0b11, {0, 2, 2}));
  EXPECT_FALSE(admits(net, 0b11, {0, 2, 3}));
  EXPECT_FALSE(admits(net, 0b01, {0, 2, 1}));
}

TEST(MaxFlowOracle, DinicAgreesWithEdmondsKarpOnRandomNetworks) {
  Xoshiro256 rng(1234);
  Xoshiro256 probe_rng(4321);  // own stream: the networks do not depend on it
  for (int trial = 0; trial < 120; ++trial) {
    const int nodes = static_cast<int>(rng.uniform_int(2, 9));
    const int edges = static_cast<int>(rng.uniform_int(1, 18));
    const EdgeKind kind = (trial % 2 == 0) ? EdgeKind::kUndirected
                                           : EdgeKind::kDirected;
    const GeneratedNetwork g =
        random_multigraph(rng, nodes, edges, {1, 4}, {0.0, 0.5}, kind);
    const Capacity reference =
        testing::oracle_max_flow(g.net, g.source, g.sink);
    EXPECT_EQ(max_flow(g.net, g.source, g.sink), reference)
        << "trial " << trial;
    // Bounded, masked solves — the shape every reliability sweep uses.
    for (int probe = 0; probe < 8; ++probe) {
      const Mask alive = probe_rng() & full_mask(g.net.num_edges());
      const Capacity limit = probe_rng.uniform_int(1, 6);
      EXPECT_EQ(max_flow_masked(g.net, alive, g.source, g.sink, limit),
                testing::oracle_max_flow_masked(g.net, alive, g.source,
                                                g.sink, limit))
          << "trial " << trial << " alive=" << alive << " limit=" << limit;
    }
  }
}

TEST_P(MaxFlowSolverTest, ResidualStateIsAValidFlowAfterSolve) {
  // After solve, net flow out of s equals the returned value and every
  // interior node conserves flow — required for min-cut extraction.
  Xoshiro256 rng(555);
  for (int trial = 0; trial < 60; ++trial) {
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(2, 7)),
        static_cast<int>(rng.uniform_int(1, 12)), {1, 3}, {0.0, 0.4});
    ResidualGraph res = ResidualGraph::from_network_all(g.net);
    const Capacity value = solve(res, g.source, g.sink);

    std::vector<Capacity> balance(static_cast<std::size_t>(g.net.num_nodes()),
                                  0);
    for (EdgeId id = 0; id < g.net.num_edges(); ++id) {
      // Forward arcs come first per edge in insertion order (2*id).
      const ResidualArc& fwd = res.arc(2 * id);
      const Capacity net_flow = g.net.edge(id).capacity - fwd.cap;
      balance[static_cast<std::size_t>(g.net.edge(id).u)] -= net_flow;
      balance[static_cast<std::size_t>(g.net.edge(id).v)] += net_flow;
    }
    for (NodeId n = 0; n < g.net.num_nodes(); ++n) {
      if (n == g.source) {
        EXPECT_EQ(balance[static_cast<std::size_t>(n)], -value);
      } else if (n == g.sink) {
        EXPECT_EQ(balance[static_cast<std::size_t>(n)], value);
      } else {
        EXPECT_EQ(balance[static_cast<std::size_t>(n)], 0) << "node " << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DinicAndOracle, MaxFlowSolverTest,
    ::testing::Values(Solver::kDinic, Solver::kOracle),
    [](const ::testing::TestParamInfo<Solver>& param_info) {
      return param_info.param == Solver::kDinic ? "dinic" : "edmonds_karp";
    });

TEST(MinCut, ValueMatchesMaxFlowAndEdgesDisconnect) {
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 80; ++trial) {
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(2, 7)),
        static_cast<int>(rng.uniform_int(1, 12)), {1, 3}, {0.0, 0.4});
    const MinCut cut = min_cut(g.net, g.source, g.sink);
    EXPECT_EQ(cut.value, max_flow(g.net, g.source, g.sink));
    Capacity cut_cap = 0;
    for (EdgeId id : cut.edges) cut_cap += g.net.edge(id).capacity;
    EXPECT_EQ(cut_cap, cut.value);
    EXPECT_TRUE(cut.source_side[static_cast<std::size_t>(g.source)]);
    EXPECT_FALSE(cut.source_side[static_cast<std::size_t>(g.sink)]);
  }
}

TEST(MinCardinalityCut, PrefersFewEdgesOverCapacity) {
  // s ==2x== m --1-- t : capacity min cut is the two parallel cap-1 edges?
  // No: cardinality cut is the single right edge even though its capacity
  // (5) exceeds the left pair's total (2).
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(0, 1, 1, 0.1);
  const EdgeId right = net.add_undirected_edge(1, 2, 5, 0.1);
  const MinCut cut = min_cardinality_cut(net, 0, 2);
  EXPECT_EQ(cut.value, 1);
  EXPECT_EQ(cut.edges, std::vector<EdgeId>{right});
}

TEST(MinCut, RejectsBadEndpoints) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_THROW(min_cut(net, 0, 0), std::invalid_argument);
  EXPECT_THROW(max_flow(net, 0, 7), std::invalid_argument);
}

TEST(ConfigResidualTest, ResetRestoresPristineCapacities) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.1);
  net.add_directed_edge(1, 2, 3, 0.1);
  ConfigResidual res(net);
  DinicSolver solver;
  res.reset(0b11);
  EXPECT_EQ(solver.solve(res.graph(), 0, 2), 2);
  // Solve mutated capacities; reset must restore them.
  res.reset(0b11);
  EXPECT_EQ(solver.solve(res.graph(), 0, 2), 2);
  res.reset(0b01);
  EXPECT_EQ(solver.solve(res.graph(), 0, 2), 0);
  res.reset(0b10);
  EXPECT_EQ(solver.solve(res.graph(), 1, 2), 3);
}

TEST(ConfigResidualTest, SuperArcsSurviveResets) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  ConfigResidual res(net);
  const NodeId super = res.add_super_node();
  res.add_super_arc(1, super, 4, 0);
  DinicSolver solver;
  res.reset(0b1);
  EXPECT_EQ(solver.solve(res.graph(), 0, super), 1);
  res.set_super_arc(0, 0, 0);
  res.reset(0b1);
  EXPECT_EQ(solver.solve(res.graph(), 0, super), 0);
}

}  // namespace
}  // namespace streamrel
