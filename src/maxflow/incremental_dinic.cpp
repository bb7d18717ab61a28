#include "streamrel/maxflow/incremental_dinic.hpp"

#include <stdexcept>

namespace streamrel {

IncrementalMaxFlow::IncrementalMaxFlow(const FlowNetwork& net,
                                       FlowDemand demand)
    : cfg_(net), s_(demand.source), t_(demand.sink), target_(demand.rate) {
  net.check_demand(demand);
  alive_.assign(static_cast<std::size_t>(net.num_edges()), true);
  reaugment();
}

Capacity IncrementalMaxFlow::augment(NodeId from, NodeId to, Capacity limit) {
  if (limit <= 0) return 0;
  ++solver_calls_;
  return dinic_.solve(cfg_.graph(), from, to, limit);
}

void IncrementalMaxFlow::reaugment() {
  flow_ += augment(s_, t_, target_ - flow_);
}

void IncrementalMaxFlow::drain(NodeId tail, NodeId head, Capacity carried) {
  // Conservation is broken: `tail` has `carried` surplus units and `head`
  // is missing them. Open a temporary bidirectional s <-> t "value
  // channel" of capacity `carried`, then push the full amount tail ->
  // head through the residual graph. Real reroutes restore the flow;
  // repair units crossing the channel s -> t correspond to a reduction of
  // the global flow value, units crossing t -> s to an increase (possible
  // when the removed capacity carried a value-wasting circulation). Flow
  // decomposition of the broken units guarantees the combined
  // augmentation always succeeds in full.
  ResidualGraph& g = cfg_.graph();
  const std::int32_t channel = g.add_arc_pair(s_, t_, carried, carried);
  const Capacity repaired = augment(tail, head, carried);
  if (repaired != carried) {
    throw std::logic_error(
        "IncrementalMaxFlow: flow repair failed; invariant violated");
  }
  const Capacity value_drop = carried - g.arc(channel).cap;  // net s->t use
  flow_ -= value_drop;
  g.remove_last_arc_pair();
}

void IncrementalMaxFlow::set_edge_alive(EdgeId id, bool alive) {
  if (!cfg_.valid_edge(id)) throw std::invalid_argument("bad edge id");
  if (alive_[static_cast<std::size_t>(id)] == alive) return;
  alive_[static_cast<std::size_t>(id)] = alive;
  ++toggles_;

  ResidualGraph& g = cfg_.graph();
  const Capacity cap = cfg_.edge_capacity(id);
  const bool directed = cfg_.edge_directed(id);
  const std::int32_t fi = cfg_.forward_arc(id);

  if (alive) {
    // Dead edges always hold (0, 0); restore pristine capacities.
    g.arc(fi).cap = cap;
    g.arc(g.arc(fi).rev).cap = directed ? 0 : cap;
  } else {
    // Net flow currently on the edge: positive means u -> v.
    const Capacity net_flow = cap - g.arc(fi).cap;
    g.arc(fi).cap = 0;
    g.arc(g.arc(fi).rev).cap = 0;
    if (net_flow != 0) {
      // Orient as tail -> head in flow direction, then repair
      // conservation.
      const NodeId tail = net_flow > 0 ? cfg_.edge_u(id) : cfg_.edge_v(id);
      const NodeId head = net_flow > 0 ? cfg_.edge_v(id) : cfg_.edge_u(id);
      drain(tail, head, net_flow > 0 ? net_flow : -net_flow);
    }
  }
  // Cancellation (deletions) or restored capacity (insertions) may have
  // exposed alternative routes.
  reaugment();
}

}  // namespace streamrel
