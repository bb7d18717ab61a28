#pragma once
// Chain decomposition — the natural extension of the paper's two-component
// algorithm to a SEQUENCE of bottleneck cuts (the paper's future-work
// direction): the network is layered
//
//   s in L_0 | B_0 | L_1 | B_1 | ... | B_{m-1} | L_m contains t
//
// with every edge internal to a layer or crossing one boundary B_b.
// Each boundary gets its own assignment set D_b; a middle layer's failure
// configuration realizes a RELATION between incoming and outgoing
// assignments (which (a, a') pairs it can route); the overall reliability
// propagates a distribution over "reachable assignment subsets" left to
// right, filtering through each boundary's 2^{k_b} link configurations —
// transfer-matrix style — and finishes against the last layer's array.
// Exact, and exponential only in the largest layer.

#include <vector>

#include "streamrel/core/assignments.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

struct ChainOptions {
  AssignmentOptions assignments{};
};

/// Exact reliability of a layered network. `layer[n]` gives node n's
/// layer index in [0, num_layers); layers must be non-empty, the demand
/// source must sit in layer 0 and the sink in the last layer, and every
/// edge must be internal to a layer or join consecutive layers. Per
/// boundary, |D_b| and |D_{b-1}| * |D_b| must both fit in 63 bits.
ReliabilityResult reliability_chain(const FlowNetwork& net,
                                    const FlowDemand& demand,
                                    const std::vector<int>& layer,
                                    const ChainOptions& options = {},
                                    const ExecContext* ctx = nullptr);

/// Convenience: derives layers from a list of disjoint cut edge sets
/// ordered from the source side to the sink side. Returns the per-node
/// layer vector. Throws if the cuts do not induce a valid layering.
std::vector<int> layers_from_cuts(
    const FlowNetwork& net, NodeId s, NodeId t,
    const std::vector<std::vector<EdgeId>>& ordered_cuts);

}  // namespace streamrel
