#include "streamrel/graph/flow_network.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace streamrel {
namespace {

TEST(FlowNetwork, AddNodesAndEdges) {
  FlowNetwork net(3);
  EXPECT_EQ(net.num_nodes(), 3);
  const NodeId n = net.add_node();
  EXPECT_EQ(n, 3);
  const NodeId first = net.add_nodes(2);
  EXPECT_EQ(first, 4);
  EXPECT_EQ(net.num_nodes(), 6);

  const EdgeId e = net.add_undirected_edge(0, 1, 5, 0.25);
  EXPECT_EQ(e, 0);
  EXPECT_EQ(net.num_edges(), 1);
  EXPECT_EQ(net.edge(e).capacity, 5);
  EXPECT_DOUBLE_EQ(net.edge(e).failure_prob, 0.25);
  EXPECT_FALSE(net.edge(e).directed());
}

TEST(FlowNetwork, EdgeOtherEndpoint) {
  FlowNetwork net(2);
  net.add_directed_edge(0, 1, 1, 0.0);
  EXPECT_EQ(net.edge(0).other(0), 1);
  EXPECT_EQ(net.edge(0).other(1), 0);
}

TEST(FlowNetwork, IncidenceListsBothEndpoints) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_directed_edge(1, 2, 1, 0.1);
  EXPECT_EQ(net.incident_edges(0).size(), 1u);
  EXPECT_EQ(net.incident_edges(1).size(), 2u);
  EXPECT_EQ(net.incident_edges(2).size(), 1u);
}

TEST(FlowNetwork, RejectsBadEdges) {
  FlowNetwork net(2);
  EXPECT_THROW(net.add_undirected_edge(0, 0, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(net.add_undirected_edge(0, 5, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(net.add_undirected_edge(-1, 1, 1, 0.1), std::invalid_argument);
  EXPECT_THROW(net.add_undirected_edge(0, 1, -2, 0.1), std::invalid_argument);
  EXPECT_THROW(net.add_undirected_edge(0, 1, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(net.add_undirected_edge(0, 1, 1, -0.1), std::invalid_argument);
}

TEST(FlowNetwork, SettersValidate) {
  FlowNetwork net(2);
  const EdgeId e = net.add_undirected_edge(0, 1, 1, 0.1);
  net.set_failure_prob(e, 0.9);
  EXPECT_DOUBLE_EQ(net.edge(e).failure_prob, 0.9);
  net.set_capacity(e, 7);
  EXPECT_EQ(net.edge(e).capacity, 7);
  EXPECT_THROW(net.set_failure_prob(e, 1.0), std::invalid_argument);
  EXPECT_THROW(net.set_capacity(e, -1), std::invalid_argument);
  EXPECT_THROW(net.set_failure_prob(99, 0.1), std::invalid_argument);
}

TEST(FlowNetwork, MaskLimits) {
  FlowNetwork small(2);
  for (int i = 0; i < 63; ++i) small.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_TRUE(small.fits_mask());
  EXPECT_EQ(small.all_edges_mask(), full_mask(63));
  small.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_FALSE(small.fits_mask());
  EXPECT_THROW(small.all_edges_mask(), std::invalid_argument);
}

TEST(FlowNetwork, FailureProbsVector) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(0, 1, 1, 0.2);
  const auto probs = net.failure_probs();
  ASSERT_EQ(probs.size(), 2u);
  EXPECT_DOUBLE_EQ(probs[0], 0.1);
  EXPECT_DOUBLE_EQ(probs[1], 0.2);
}

TEST(FlowNetwork, TotalCapacity) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.1);
  net.add_undirected_edge(1, 2, 3, 0.1);
  EXPECT_EQ(net.total_capacity({0, 1}), 5);
  EXPECT_EQ(net.total_capacity({}), 0);
  EXPECT_THROW(net.total_capacity({5}), std::invalid_argument);
}

TEST(FlowNetwork, DemandValidation) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_NO_THROW(net.check_demand({0, 2, 1}));
  EXPECT_THROW(net.check_demand({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(net.check_demand({0, 5, 1}), std::invalid_argument);
  EXPECT_THROW(net.check_demand({0, 2, 0}), std::invalid_argument);
  EXPECT_THROW(net.check_demand({0, 2, -1}), std::invalid_argument);
}

TEST(FlowNetwork, SummaryMentionsKinds) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_NE(net.summary().find("undirected"), std::string::npos);
  net.add_directed_edge(1, 2, 1, 0.1);
  EXPECT_NE(net.summary().find("1 directed"), std::string::npos);
}

TEST(MergeSources, SuperSourceFeedsAllServers) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 2, 2, 0.1);
  net.add_undirected_edge(1, 2, 3, 0.1);
  net.add_undirected_edge(2, 3, 4, 0.1);
  const NodeId super = merge_sources(net, {0, 1});
  EXPECT_EQ(super, 4);
  EXPECT_EQ(net.num_edges(), 5);
  // Feed links are perfect and directed, appended after existing edges.
  for (EdgeId id = 3; id < 5; ++id) {
    EXPECT_TRUE(net.edge(id).directed());
    EXPECT_DOUBLE_EQ(net.edge(id).failure_prob, 0.0);
    EXPECT_EQ(net.edge(id).u, super);
  }
}

TEST(MergeSources, ValidatesInput) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_THROW(merge_sources(net, {}), std::invalid_argument);
  EXPECT_THROW(merge_sources(net, {5}), std::invalid_argument);
}

}  // namespace
}  // namespace streamrel
