#pragma once
// Enumeration of small minimal s-t cut sets — the candidate bottleneck
// link sets the decomposition algorithm can exploit.

#include <cstdint>
#include <vector>

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/util/exec_context.hpp"

namespace streamrel {

struct CutEnumerationOptions {
  int max_size = 4;  ///< only cut sets with at most this many edges
  /// Abort knob: stop after visiting this many nodes of the search tree.
  std::uint64_t max_branch_nodes = 5'000'000;
  /// Keep at most this many cut sets (the first ones in result order).
  std::size_t max_results = 10'000;
};

/// All minimal s-t disconnecting edge sets of cardinality <= max_size,
/// found by a bounded search tree: every minimal cut meets every s -> t
/// path, so the search takes a shortest path of G minus the edges chosen
/// so far and branches on each of its edges. Its cost follows the number
/// of cuts, not C(|E|, max_size). Direction-aware like
/// removal_disconnects; no edge-count limit.
///
/// Each result is sorted by edge id. Results are ordered by size, then
/// colexicographically (the larger edge ids decide, the order Gosper's
/// hack visits masks in), and truncated at max_results. An already
/// disconnected pair yields nothing. Reaching max_branch_nodes stops the
/// search and returns the cuts found so far: every one is a minimal cut,
/// but the family may be incomplete. With a context the search polls for
/// deadline/cancellation every ExecContext::kPollStride branch nodes and
/// raises ExecInterrupted on a stop.
std::vector<std::vector<EdgeId>> enumerate_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options = {},
    const ExecContext* ctx = nullptr);

}  // namespace streamrel
