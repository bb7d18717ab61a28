#include "streamrel/graph/flow_network.hpp"

#include <sstream>
#include <stdexcept>

namespace streamrel {

FlowNetwork::FlowNetwork(int num_nodes) {
  if (num_nodes < 0) throw std::invalid_argument("negative node count");
  num_nodes_ = num_nodes;
  incident_.resize(static_cast<std::size_t>(num_nodes));
}

NodeId FlowNetwork::add_node() {
  incident_.emplace_back();
  return num_nodes_++;
}

NodeId FlowNetwork::add_nodes(int count) {
  if (count <= 0) throw std::invalid_argument("add_nodes: count must be > 0");
  const NodeId first = num_nodes_;
  for (int i = 0; i < count; ++i) add_node();
  return first;
}

EdgeId FlowNetwork::add_edge(NodeId u, NodeId v, Capacity capacity,
                             double failure_prob, EdgeKind kind) {
  if (!valid_node(u) || !valid_node(v)) {
    throw std::invalid_argument("add_edge: endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("add_edge: self-loops not allowed");
  if (capacity < 0) throw std::invalid_argument("add_edge: negative capacity");
  if (!(failure_prob >= 0.0) || !(failure_prob < 1.0)) {
    throw std::invalid_argument("add_edge: failure probability not in [0,1)");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, capacity, failure_prob, kind});
  incident_[static_cast<std::size_t>(u)].push_back(id);
  incident_[static_cast<std::size_t>(v)].push_back(id);
  return id;
}

void FlowNetwork::set_failure_prob(EdgeId id, double p) {
  if (!valid_edge(id)) throw std::invalid_argument("bad edge id");
  if (!(p >= 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("failure probability not in [0,1)");
  }
  edges_[static_cast<std::size_t>(id)].failure_prob = p;
}

void FlowNetwork::set_capacity(EdgeId id, Capacity c) {
  if (!valid_edge(id)) throw std::invalid_argument("bad edge id");
  if (c < 0) throw std::invalid_argument("negative capacity");
  edges_[static_cast<std::size_t>(id)].capacity = c;
}

Mask FlowNetwork::all_edges_mask() const {
  if (!fits_mask()) {
    throw std::invalid_argument(
        "network has more than 63 edges; exhaustive masks unavailable");
  }
  return full_mask(num_edges());
}

std::vector<double> FlowNetwork::failure_probs() const {
  std::vector<double> out;
  out.reserve(edges_.size());
  for (const Edge& e : edges_) out.push_back(e.failure_prob);
  return out;
}

Capacity FlowNetwork::total_capacity(const std::vector<EdgeId>& ids) const {
  Capacity total = 0;
  for (EdgeId id : ids) {
    if (!valid_edge(id)) throw std::invalid_argument("bad edge id");
    total += edge(id).capacity;
  }
  return total;
}

void FlowNetwork::check_demand(const FlowDemand& demand) const {
  if (!valid_node(demand.source) || !valid_node(demand.sink)) {
    throw std::invalid_argument("demand endpoints out of range");
  }
  if (demand.source == demand.sink) {
    throw std::invalid_argument("demand source equals sink");
  }
  if (demand.rate <= 0) {
    throw std::invalid_argument("demand rate must be positive");
  }
}

std::string FlowNetwork::summary() const {
  int directed = 0;
  for (const Edge& e : edges_) directed += e.directed() ? 1 : 0;
  std::ostringstream oss;
  oss << num_nodes_ << " nodes, " << num_edges() << " edges";
  if (directed == 0) {
    oss << " (undirected)";
  } else if (directed == num_edges()) {
    oss << " (directed)";
  } else {
    oss << " (" << directed << " directed, " << (num_edges() - directed)
        << " undirected)";
  }
  return oss.str();
}

NodeId merge_sources(FlowNetwork& net, const std::vector<NodeId>& servers) {
  if (servers.empty()) {
    throw std::invalid_argument("merge_sources: need >= 1 server");
  }
  Capacity total = 0;
  for (NodeId server : servers) {
    if (!net.valid_node(server)) {
      throw std::invalid_argument("merge_sources: bad server id");
    }
    for (EdgeId id : net.incident_edges(server)) {
      total += net.edge(id).capacity;
    }
  }
  const NodeId super = net.add_node();
  // Capacity = sum of all server incident capacity: an effective infinity
  // that keeps the integer arithmetic bounded.
  for (NodeId server : servers) {
    net.add_directed_edge(super, server, total, 0.0);
  }
  return super;
}

}  // namespace streamrel
