#pragma once
// Allocation-free re-evaluation of max-flow over many failure
// configurations of one network: the residual graph (including any extra
// super nodes/arcs a caller appends) is built once, and reset() restores
// pristine capacities with the chosen edges alive. Exhaustive reliability
// sweeps call reset + solve millions of times.
//
// The per-edge attributes the hot loops need (capacity, orientation,
// endpoints) are gathered into flat columns at construction, so reset()
// walks three contiguous arrays instead of pointer-chasing Edge records —
// and the same class serves a whole FlowNetwork, a CompiledNetwork
// snapshot, or a zero-copy NetworkView of one side component (edge ids
// are then VIEW ids, matching the side failure masks bit for bit).

#include <vector>

#include "streamrel/graph/compiled.hpp"
#include "streamrel/maxflow/residual_graph.hpp"

namespace streamrel {

class ConfigResidual {
 public:
  explicit ConfigResidual(const FlowNetwork& net);
  explicit ConfigResidual(const CompiledNetwork& net);
  /// Side-component form: arcs are laid out over VIEW node ids, and every
  /// edge-indexed call (reset masks, forward_arc, edge_net_flow) uses VIEW
  /// edge ids. Produces the same residual graph as constructing from the
  /// equivalent copied subnetwork.
  explicit ConfigResidual(const NetworkView& view);

  /// Appends an extra node (e.g. a super sink); survives resets.
  NodeId add_super_node() { return g_.add_node(); }

  /// Appends an extra arc pair whose capacities are restored to
  /// (cap_uv, cap_vu) by every reset.
  void add_super_arc(NodeId u, NodeId v, Capacity cap_uv, Capacity cap_vu);

  /// Overwrites one super arc pair's pristine capacities (applied at the
  /// next reset). `index` counts add_super_arc calls in order.
  void set_super_arc(std::size_t index, Capacity cap_uv, Capacity cap_vu);

  /// Restores all capacities; network edge i exists iff bit i of `alive`.
  void reset(Mask alive);

  /// Same with an arbitrary predicate (for networks beyond 63 edges).
  void reset_with(const std::vector<bool>& alive);

  ResidualGraph& graph() noexcept { return g_; }
  const ResidualGraph& graph() const noexcept { return g_; }

  // --- flat per-edge columns (gathered once at construction) ----------

  int num_edges() const noexcept { return static_cast<int>(capacity_.size()); }
  bool valid_edge(EdgeId e) const noexcept {
    return e >= 0 && e < num_edges();
  }
  bool fits_mask() const noexcept { return num_edges() <= kMaxMaskBits; }

  Capacity edge_capacity(EdgeId id) const {
    return capacity_[static_cast<std::size_t>(id)];
  }
  bool edge_directed(EdgeId id) const {
    return directed_[static_cast<std::size_t>(id)] != 0;
  }
  NodeId edge_u(EdgeId id) const { return eu_[static_cast<std::size_t>(id)]; }
  NodeId edge_v(EdgeId id) const { return ev_[static_cast<std::size_t>(id)]; }

  /// Forward residual-arc index of network edge `id` (the reverse arc is
  /// at `arc(index).rev`). Lets incremental engines patch capacities of
  /// individual edges without a full reset.
  std::int32_t forward_arc(EdgeId id) const {
    return fwd_[static_cast<std::size_t>(id)];
  }

  /// Net flow a solver left on network edge `id` since the last reset
  /// (positive: u -> v). Only meaningful while the edge was alive.
  Capacity edge_net_flow(EdgeId id) const {
    const std::int32_t fi = fwd_[static_cast<std::size_t>(id)];
    return capacity_[static_cast<std::size_t>(id)] - g_.arc(fi).cap;
  }

 private:
  struct SuperArc {
    std::int32_t arc;  ///< forward arc index in the residual graph
    Capacity cap_uv;   ///< pristine forward capacity (applied by reset)
    Capacity cap_vu;   ///< pristine reverse capacity
  };

  void add_edge_arc(NodeId u, NodeId v, Capacity cap, bool directed, EdgeId id);

  ResidualGraph g_;
  std::vector<Capacity> capacity_;      ///< per edge: pristine capacity
  std::vector<NodeId> eu_;              ///< per edge: tail / endpoint
  std::vector<NodeId> ev_;              ///< per edge: head / other endpoint
  std::vector<std::uint8_t> directed_;  ///< per edge: 1 iff directed
  std::vector<std::int32_t> fwd_;       ///< per edge: forward arc index
  std::vector<SuperArc> super_arcs_;
};

}  // namespace streamrel
