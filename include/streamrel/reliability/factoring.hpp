#pragma once
// Exact reliability by the factoring (conditioning) method with max-flow
// pruning — a much stronger exact baseline than exhaustive enumeration,
// and the second independent oracle the property tests compare the
// bottleneck decomposition against.
//
//   R(G) = (1 - p(e)) * R(G | e up) + p(e) * R(G | e down)
//
// with two classic prunes at every node of the recursion tree:
//   * if even the optimistic graph (undecided edges treated as up) cannot
//     route d, the subtree contributes 0;
//   * if the pessimistic graph (undecided edges treated as down) already
//     routes d, the subtree contributes its full conditional mass, 1.
// The branching edge is chosen among undecided edges that carry flow in
// the optimistic max-flow, which is what makes the prunes fire.

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

struct FactoringOptions {
  /// Safety valve for pathological instances: stop (result status
  /// kBudgetExhausted) after this many recursion-tree nodes.
  std::uint64_t max_tree_nodes = 500'000'000ULL;
};

/// Exact reliability; works on networks of any size that the recursion
/// can handle (no 63-edge mask limit). On budget exhaustion or a context
/// stop the result carries the corresponding status and reliability 0
/// (the partial recursion value is not a meaningful bound).
ReliabilityResult reliability_factoring(const FlowNetwork& net,
                                        const FlowDemand& demand,
                                        const FactoringOptions& options = {},
                                        const ExecContext* ctx = nullptr);

}  // namespace streamrel
