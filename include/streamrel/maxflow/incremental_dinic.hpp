#pragma once
// Incremental bounded max-flow under single-edge insertions and deletions.
//
// The exhaustive reliability algorithms visit all 2^|E| failure
// configurations; visiting them in Gray-code order changes exactly one
// edge per step, and this class repairs the existing flow instead of
// recomputing from scratch:
//
//  * enabling an edge restores its residual capacities and re-augments
//    s -> t (bounded by the demand);
//  * disabling an edge that carries f units first tries to REROUTE the f
//    units from the edge's flow-tail to its flow-head through the residual
//    graph; any irreparable remainder d is cancelled end-to-end by pushing
//    d units tail -> s and t -> head along reverse-flow residual arcs
//    (both succeed by flow decomposition once rerouting is exhausted),
//    after which s -> t is re-augmented.
//
// The engine builds its own residual graph for (net, demand) with every
// edge alive. Used by the naive Gray-code enumeration and the
// availability simulator.
//
// Invariant after every mutation: flow_value() == min(target, maxflow of
// the current configuration), so admits() answers the feasibility
// question exactly.

#include <cstdint>
#include <vector>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/maxflow/residual_graph.hpp"

namespace streamrel {

class IncrementalMaxFlow {
 public:
  /// Builds a private residual graph with every edge alive. Requires a
  /// valid demand.
  IncrementalMaxFlow(const FlowNetwork& net, FlowDemand demand);

  /// Toggles one edge and repairs the flow. No-op if already in `alive`.
  void set_edge_alive(EdgeId id, bool alive);

  bool edge_alive(EdgeId id) const {
    return alive_[static_cast<std::size_t>(id)];
  }

  Capacity target() const noexcept { return target_; }

  /// Current bounded flow value: min(target, max-flow of the alive
  /// configuration).
  Capacity flow_value() const noexcept { return flow_; }

  /// True iff the alive configuration admits the target.
  bool admits() const noexcept { return flow_ >= target_; }

  /// Number of Dinic invocations so far (comparable to one from-scratch
  /// bounded max-flow solve each).
  std::uint64_t solver_calls() const noexcept { return solver_calls_; }

  /// Number of single-edge toggles actually applied (no-ops excluded).
  std::uint64_t toggles() const noexcept { return toggles_; }

 private:
  Capacity augment(NodeId from, NodeId to, Capacity limit);
  void reaugment();
  /// Pushes `carried` units tail -> head through the residual graph with a
  /// temporary s <-> t value channel open (the deletion repair step).
  void drain(NodeId tail, NodeId head, Capacity carried);

  ConfigResidual cfg_;
  NodeId s_;
  NodeId t_;
  Capacity target_;
  Capacity flow_ = 0;
  std::vector<bool> alive_;
  DinicSolver dinic_;
  std::uint64_t solver_calls_ = 0;
  std::uint64_t toggles_ = 0;
};

}  // namespace streamrel
