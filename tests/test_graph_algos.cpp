#include "streamrel/graph/graph_algos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace streamrel {
namespace {

TEST(Reachability, RespectsDirection) {
  FlowNetwork net(3);
  net.add_directed_edge(0, 1, 1, 0.1);
  net.add_directed_edge(1, 2, 1, 0.1);
  const auto fwd = reachable_nodes(net, 0, /*respect_direction=*/true);
  EXPECT_TRUE(fwd[2]);
  const auto back = reachable_nodes(net, 2, /*respect_direction=*/true);
  EXPECT_FALSE(back[0]);
  const auto undirected = reachable_nodes(net, 2, /*respect_direction=*/false);
  EXPECT_TRUE(undirected[0]);
}

TEST(Reachability, MaskedEdgesBlockPaths) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  EXPECT_TRUE(reachable_nodes_masked(net, 0, 0b11)[2]);
  EXPECT_FALSE(reachable_nodes_masked(net, 0, 0b01)[2]);
  EXPECT_TRUE(reachable_nodes_masked(net, 0, 0b01)[1]);
  EXPECT_FALSE(reachable_nodes_masked(net, 0, 0b00)[1]);
}

TEST(Reachability, WithoutFlaggedEdgesForwardAndBackward) {
  FlowNetwork net(4);
  net.add_directed_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_directed_edge(2, 3, 1, 0.1);
  const std::vector<bool> none = removed_edge_flags(net, {});
  EXPECT_EQ(reachable_nodes_without(net, 0, none),
            (std::vector<bool>{true, true, true, true}));
  EXPECT_EQ(reachable_nodes_without(net, 1, none),
            (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(reachable_nodes_without(net, 1, none, /*backward=*/true),
            (std::vector<bool>{true, true, true, false}));
  const std::vector<bool> pinch = removed_edge_flags(net, {1});
  EXPECT_EQ(reachable_nodes_without(net, 0, pinch),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(reachable_nodes_without(net, 3, pinch, /*backward=*/true),
            (std::vector<bool>{false, false, true, true}));
  EXPECT_THROW(removed_edge_flags(net, {3}), std::invalid_argument);
}

TEST(Components, CountsAndLabels) {
  FlowNetwork net(5);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_directed_edge(2, 3, 1, 0.1);  // direction ignored for components
  const Components comps = connected_components(net);
  EXPECT_EQ(comps.count, 3);
  EXPECT_EQ(comps.id[0], comps.id[1]);
  EXPECT_EQ(comps.id[2], comps.id[3]);
  EXPECT_NE(comps.id[0], comps.id[2]);
  EXPECT_NE(comps.id[4], comps.id[0]);
}

TEST(Components, MaskedVariant) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  EXPECT_EQ(connected_components_masked(net, 0b11).count, 1);
  EXPECT_EQ(connected_components_masked(net, 0b01).count, 2);
  EXPECT_EQ(connected_components_masked(net, 0b00).count, 3);
}

TEST(Components, WithoutFlaggedEdgesNumbersByFirstDiscovery) {
  FlowNetwork net(5);
  net.add_undirected_edge(3, 4, 1, 0.1);
  net.add_directed_edge(1, 0, 1, 0.1);  // direction ignored for components
  net.add_undirected_edge(2, 4, 1, 0.1);
  net.add_undirected_edge(0, 2, 1, 0.1);
  const Components all =
      connected_components_without(net, removed_edge_flags(net, {}));
  EXPECT_EQ(all.count, 1);
  const Components split =
      connected_components_without(net, removed_edge_flags(net, {3}));
  EXPECT_EQ(split.count, 2);
  EXPECT_EQ(split.id, (std::vector<int>{0, 0, 1, 1, 1}));
  const Components reference = connected_components(net);
  EXPECT_EQ(all.id, reference.id);
}

TEST(RemovalDisconnects, DetectsSeparation) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);  // the pinch
  net.add_undirected_edge(2, 3, 1, 0.1);
  EXPECT_TRUE(removal_disconnects(net, 0, 3, {1}));
  EXPECT_FALSE(removal_disconnects(net, 0, 3, {}));
  EXPECT_FALSE(removal_disconnects(net, 0, 1, {1}));
}

TEST(RemovalDisconnects, DirectionalSeparation) {
  FlowNetwork net(2);
  net.add_directed_edge(0, 1, 1, 0.1);
  net.add_directed_edge(1, 0, 1, 0.1);
  EXPECT_TRUE(removal_disconnects(net, 0, 1, {0}));
  EXPECT_FALSE(removal_disconnects(net, 0, 1, {0}, /*respect_direction=*/false));
}

TEST(Bridges, PathIsAllBridges) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  EXPECT_EQ(find_bridges(net), (std::vector<EdgeId>{0, 1, 2}));
}

TEST(Bridges, CycleHasNone) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_undirected_edge(2, 0, 1, 0.1);
  EXPECT_TRUE(find_bridges(net).empty());
}

TEST(Bridges, ParallelEdgesAreNeverBridges) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(0, 1, 1, 0.1);  // parallel pair
  net.add_undirected_edge(1, 2, 1, 0.1);  // genuine bridge
  EXPECT_EQ(find_bridges(net), (std::vector<EdgeId>{2}));
}

TEST(Bridges, BridgeBetweenTwoCycles) {
  FlowNetwork net(6);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(1, 2, 1, 0.1);
  net.add_undirected_edge(2, 0, 1, 0.1);
  const EdgeId bridge = net.add_undirected_edge(2, 3, 1, 0.1);
  net.add_undirected_edge(3, 4, 1, 0.1);
  net.add_undirected_edge(4, 5, 1, 0.1);
  net.add_undirected_edge(5, 3, 1, 0.1);
  EXPECT_EQ(find_bridges(net), std::vector<EdgeId>{bridge});
}

TEST(Bridges, DisconnectedGraphHandled) {
  FlowNetwork net(4);
  net.add_undirected_edge(0, 1, 1, 0.1);
  net.add_undirected_edge(2, 3, 1, 0.1);
  const auto bridges = find_bridges(net);
  EXPECT_EQ(bridges.size(), 2u);
}

}  // namespace
}  // namespace streamrel
