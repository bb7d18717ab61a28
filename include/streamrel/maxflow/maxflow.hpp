#pragma once
// Max-flow facade: bounded (early-exit) flow and min-cut extraction over
// whole networks, all solved by DinicSolver. The reliability algorithms
// only ever need the YES/NO question "does this configuration admit d
// sub-streams?", so every entry point takes a `limit` at which the
// solver stops augmenting.

#include <vector>

#include "streamrel/maxflow/dinic.hpp"

namespace streamrel {

/// Max-flow value on the full network.
Capacity max_flow(const FlowNetwork& net, NodeId s, NodeId t,
                  Capacity limit = kUnbounded);

/// Max-flow value when only `alive` edges exist. Requires net.fits_mask().
Capacity max_flow_masked(const FlowNetwork& net, Mask alive, NodeId s,
                         NodeId t, Capacity limit = kUnbounded);

/// True iff the configuration `alive` admits the demand (bounded flow,
/// early exit at demand.rate).
bool admits_demand(const FlowNetwork& net, Mask alive,
                   const FlowDemand& demand);

/// Minimum-capacity s-t cut of the full network: runs an exact max-flow,
/// then returns the network edges crossing from the residual-reachable
/// source side. For undirected edges the edge is included when it crosses
/// the partition in either orientation.
struct MinCut {
  Capacity value = 0;
  std::vector<EdgeId> edges;
  std::vector<bool> source_side;  ///< per node
};
MinCut min_cut(const FlowNetwork& net, NodeId s, NodeId t);

/// Minimum-CARDINALITY s-t cut: same, but every edge counts 1 (capacities
/// ignored). This is the natural search for a small bottleneck link set.
MinCut min_cardinality_cut(const FlowNetwork& net, NodeId s, NodeId t);

}  // namespace streamrel
