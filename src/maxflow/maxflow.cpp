#include "streamrel/maxflow/maxflow.hpp"

#include <stdexcept>

namespace streamrel {

Capacity max_flow(const FlowNetwork& net, NodeId s, NodeId t,
                  Capacity limit) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad max-flow endpoints");
  }
  ResidualGraph g = ResidualGraph::from_network_all(net);
  return DinicSolver().solve(g, s, t, limit);
}

Capacity max_flow_masked(const FlowNetwork& net, Mask alive, NodeId s,
                         NodeId t, Capacity limit) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad max-flow endpoints");
  }
  ResidualGraph g = ResidualGraph::from_network(net, alive);
  return DinicSolver().solve(g, s, t, limit);
}

bool admits_demand(const FlowNetwork& net, Mask alive,
                   const FlowDemand& demand) {
  net.check_demand(demand);
  return max_flow_masked(net, alive, demand.source, demand.sink,
                         demand.rate) >= demand.rate;
}

namespace {

MinCut extract_cut(const FlowNetwork& net, const ResidualGraph& g, NodeId s,
                   Capacity value) {
  MinCut cut;
  cut.value = value;
  cut.source_side = g.residual_reachable(s);
  // Pad for any super nodes the residual graph added beyond the network.
  cut.source_side.resize(static_cast<std::size_t>(net.num_nodes()));
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    const Edge& e = net.edge(id);
    const bool u_in = cut.source_side[static_cast<std::size_t>(e.u)];
    const bool v_in = cut.source_side[static_cast<std::size_t>(e.v)];
    if (u_in == v_in) continue;
    // A directed edge only separates when it leaves the source side; an
    // undirected edge separates either way.
    if (!e.directed() || (u_in && !v_in)) cut.edges.push_back(id);
  }
  return cut;
}

}  // namespace

MinCut min_cut(const FlowNetwork& net, NodeId s, NodeId t) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad min-cut endpoints");
  }
  ResidualGraph g = ResidualGraph::from_network_all(net);
  const Capacity value = DinicSolver().solve(g, s, t);
  return extract_cut(net, g, s, value);
}

MinCut min_cardinality_cut(const FlowNetwork& net, NodeId s, NodeId t) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad min-cut endpoints");
  }
  // Same network with all capacities forced to one: max-flow counts
  // edge-disjoint paths, so the min cut minimizes the NUMBER of edges.
  ResidualGraph g(net.num_nodes());
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    const Edge& e = net.edge(id);
    g.add_arc_pair(e.u, e.v, 1, e.directed() ? 0 : 1, id);
  }
  const Capacity value = DinicSolver().solve(g, s, t);
  return extract_cut(net, g, s, value);
}

}  // namespace streamrel
