#pragma once
// Automatic bottleneck-partition selection.
//
// The paper assumes the bottleneck link set is given. For a usable
// library we also search for one: candidates come from bridges, the
// minimum-cardinality s-t cut, and (on mask-sized graphs) every minimal
// cut set of at most max_k links, listed by the branching search in
// cut_enumeration.hpp; the winner minimizes the decomposition
// cost, which is dominated by 2^max(|E_s|, |E_t|) and secondarily by the
// assignment count governed by k.

#include <optional>

#include "streamrel/cuts/bottleneck.hpp"
#include "streamrel/cuts/cut_enumeration.hpp"
#include "streamrel/util/exec_context.hpp"

namespace streamrel {

struct PartitionSearchOptions {
  int max_k = 4;  ///< largest bottleneck cardinality considered
  /// Sides with more internal links than this are rejected (side arrays
  /// enumerate 2^edges configurations).
  int max_side_edges = 30;
  CutEnumerationOptions enumeration{};
};

struct PartitionChoice {
  BottleneckPartition partition;
  PartitionStats stats;
};

/// Best partition found, or std::nullopt when none satisfies the limits
/// (e.g. the graph has no small balanced cut). With a context, the cut
/// enumeration polls for deadline/cancellation inside its search and
/// between candidates, and raises ExecInterrupted on a stop.
std::optional<PartitionChoice> find_best_partition(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options = {},
    const ExecContext* ctx = nullptr);

/// All admissible candidate partitions, deduplicated and sorted best
/// first (smaller max side, then smaller k). Callers that may reject a
/// candidate for reasons the cost model cannot see (e.g. assignment-set
/// blow-up at a specific demand) walk this list.
std::vector<PartitionChoice> find_candidate_partitions(
    const FlowNetwork& net, NodeId s, NodeId t,
    const PartitionSearchOptions& options = {},
    const ExecContext* ctx = nullptr);

}  // namespace streamrel
