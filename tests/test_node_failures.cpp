#include "streamrel/reliability/node_failures.hpp"

#include <gtest/gtest.h>

#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/reliability/naive.hpp"
#include "test_support.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

using testing::kTol;

// Independent oracle: enumerate edge states AND node states directly on
// the original network (a node failure removes all incident edges).
double brute_force_with_node_failures(const FlowNetwork& net,
                                      const FlowDemand& demand,
                                      const std::vector<NodeReliability>& nodes) {
  const int m = net.num_edges();
  const int n = net.num_nodes();
  double sum = 0.0;
  for (Mask edge_cfg = 0; edge_cfg < (Mask{1} << m); ++edge_cfg) {
    for (Mask node_cfg = 0; node_cfg < (Mask{1} << n); ++node_cfg) {
      double p = config_probability(net.failure_probs(), edge_cfg);
      for (int v = 0; v < n; ++v) {
        const double q = nodes[static_cast<std::size_t>(v)].failure_prob;
        p *= test_bit(node_cfg, v) ? (1.0 - q) : q;
      }
      if (p == 0.0) continue;
      // An edge is usable iff it and both endpoints are alive.
      Mask usable = 0;
      for (EdgeId id = 0; id < m; ++id) {
        const Edge& e = net.edge(id);
        if (test_bit(edge_cfg, id) && test_bit(node_cfg, e.u) &&
            test_bit(node_cfg, e.v)) {
          usable |= bit(id);
        }
      }
      // Demand endpoints must themselves be alive.
      if (!test_bit(node_cfg, demand.source) ||
          !test_bit(node_cfg, demand.sink)) {
        continue;
      }
      if (testing::oracle_max_flow_masked(net, usable, demand.source,
                                          demand.sink,
                                          demand.rate) >= demand.rate) {
        sum += p;
      }
    }
  }
  return sum;
}

FlowNetwork directed_diamond(double p) {
  FlowNetwork net(4);
  net.add_directed_edge(0, 1, 1, p);
  net.add_directed_edge(0, 2, 1, p);
  net.add_directed_edge(1, 3, 1, p);
  net.add_directed_edge(2, 3, 1, p);
  return net;
}

TEST(NodeSplitting, ShapeOfTransformedNetwork) {
  const FlowNetwork net = directed_diamond(0.1);
  const std::vector<NodeReliability> nodes(4, NodeReliability{0.2, 5});
  const SplitNetwork split = split_unreliable_nodes(net, {0, 3, 1}, nodes);
  EXPECT_EQ(split.net.num_nodes(), 8);
  EXPECT_EQ(split.net.num_edges(), 8);  // 4 internal + 4 original
  // Internal edges carry the node failure probability and relay capacity.
  for (NodeId v = 0; v < 4; ++v) {
    const Edge& internal =
        split.net.edge(split.node_edge[static_cast<std::size_t>(v)]);
    EXPECT_DOUBLE_EQ(internal.failure_prob, 0.2);
    EXPECT_EQ(internal.capacity, 5);
    EXPECT_TRUE(internal.directed());
  }
  // Demand enters at the source's v_in and leaves at the sink's v_out.
  EXPECT_EQ(split.demand.source, split.in_node[0]);
  EXPECT_EQ(split.demand.sink, split.out_node[3]);
}

TEST(NodeSplitting, ReliabilityMatchesJointBruteForce) {
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 12; ++trial) {
    // Small random DAG-ish directed graph.
    const int n = static_cast<int>(rng.uniform_int(3, 5));
    FlowNetwork net(n);
    const int m = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < m; ++i) {
      NodeId u = 0, v = 0;
      while (u == v) {
        u = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
        v = static_cast<NodeId>(rng.uniform_below(static_cast<std::uint64_t>(n)));
      }
      net.add_directed_edge(u, v, rng.uniform_int(1, 2),
                            rng.uniform_real(0.0, 0.5));
    }
    std::vector<NodeReliability> nodes;
    for (int v = 0; v < n; ++v) {
      nodes.push_back(NodeReliability{rng.uniform_real(0.0, 0.4),
                                      NodeReliability::kNoRelayLimit});
    }
    const FlowDemand demand{0, static_cast<NodeId>(n - 1),
                            rng.uniform_int(1, 2)};
    const SplitNetwork split = split_unreliable_nodes(net, demand, nodes);
    EXPECT_NEAR(reliability_naive(split.net, split.demand).reliability,
                brute_force_with_node_failures(net, demand, nodes), kTol)
        << "trial " << trial;
  }
}

TEST(NodeSplitting, RelayCapacityLimitsThroughput) {
  FlowNetwork net(3);
  net.add_directed_edge(0, 1, 2, 0.0);
  net.add_directed_edge(1, 2, 2, 0.0);
  std::vector<NodeReliability> nodes(3, NodeReliability{0.0, 2});
  nodes[1].relay_capacity = 1;  // the middle peer can only relay 1 unit
  const SplitNetwork split = split_unreliable_nodes(net, {0, 2, 2}, nodes);
  EXPECT_NEAR(reliability_naive(split.net, split.demand).reliability, 0.0,
              kTol);
  const SplitNetwork split1 = split_unreliable_nodes(net, {0, 2, 1}, nodes);
  EXPECT_NEAR(reliability_naive(split1.net, split1.demand).reliability, 1.0,
              kTol);
}

TEST(NodeSplitting, SourceFailureCountsAgainstReliability) {
  FlowNetwork net(2);
  net.add_directed_edge(0, 1, 1, 0.0);
  std::vector<NodeReliability> nodes(2, NodeReliability{0.0});
  nodes[0].failure_prob = 0.25;
  const SplitNetwork split = split_unreliable_nodes(net, {0, 1, 1}, nodes);
  EXPECT_NEAR(reliability_naive(split.net, split.demand).reliability, 0.75,
              kTol);
}

TEST(NodeSplitting, RejectsUndirectedNetworks) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_THROW(
      split_unreliable_nodes(net, {0, 1, 1}, std::vector<NodeReliability>(2)),
      std::invalid_argument);
}

TEST(NodeSplitting, RejectsMismatchedNodeVector) {
  FlowNetwork net(3);
  net.add_directed_edge(0, 1, 1, 0.1);
  EXPECT_THROW(
      split_unreliable_nodes(net, {0, 1, 1}, std::vector<NodeReliability>(2)),
      std::invalid_argument);
}

}  // namespace
}  // namespace streamrel
