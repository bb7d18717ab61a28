#pragma once
// Dinic's algorithm: BFS level graph + blocking-flow DFS. O(V^2 E) in
// general, and the library's one max-flow solver: the reliability sweeps
// solve millions of tiny instances, so one instance keeps its scratch
// buffers and is reused across calls.

#include <vector>

#include "streamrel/maxflow/residual_graph.hpp"

namespace streamrel {

inline constexpr Capacity kUnbounded = -1;

class DinicSolver {
 public:
  /// Computes a maximum s-t flow on `g` (mutating residual capacities),
  /// stopping early once the flow value reaches `limit` (kUnbounded for a
  /// true maximum). Returns the flow value achieved.
  Capacity solve(ResidualGraph& g, NodeId s, NodeId t,
                 Capacity limit = kUnbounded);

 private:
  bool build_levels(const ResidualGraph& g, NodeId s, NodeId t);
  Capacity blocking_dfs(ResidualGraph& g, NodeId n, NodeId t, Capacity cap);

  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<NodeId> queue_;
};

}  // namespace streamrel
