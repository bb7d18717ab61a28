#pragma once
// CompiledNetwork — the immutable, shareable snapshot the solvers run on.
//
// FlowNetwork stays the mutable builder: pointer-rich array-of-structs
// edges plus per-node adjacency vectors, convenient to grow and edit.
// compile() freezes it into a structure-of-arrays snapshot:
//
//   * CSR adjacency — one offsets array plus one packed incident-edge
//     array, in exactly the builder's per-node incidence order;
//   * SoA edge columns SPLIT BY MUTATION CLASS — structure (u, v, kind)
//     and capacities live in an inner `Structure` block shared by
//     shared_ptr, while the probability columns (p, log(p), log1p(-p))
//     live in the outer CompiledNetwork.
//
// The split is what makes the serving layer's invalidation rule cheap
// and principled: a probability edit calls with_failure_prob(), which
// copies only the three probability columns and re-points at the SAME
// Structure — so "probability edits keep every structural cache" is an
// identity check on structure_id(), not an epoch heuristic. Capacity or
// topology edits go back through the builder and compile() a new
// Structure with a fresh id.
//
// NetworkView is the zero-copy companion: a side component of the
// bottleneck decomposition (§III-C) as index-translation tables over one
// pinned snapshot — no node or edge is copied. View edge ids are dense
// [0, num_edges) in original-edge-id order, the numbering a side copied
// into its own FlowNetwork would get, so failure masks and side arrays
// match such a copy bit for bit.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "streamrel/graph/delta.hpp"
#include "streamrel/graph/flow_network.hpp"

namespace streamrel {

/// CompiledNetwork::apply_delta result: the successor snapshot plus the
/// id translations (old id -> successor id; kInvalidNode / kInvalidEdge
/// for removed entities — identity maps for non-topology deltas).
/// `touched_edges` lists, in SUCCESSOR edge ids, the surviving edges
/// whose capacity the delta changed (the cut-scoped invalidation key;
/// empty for probability-only deltas).
struct CompiledDelta {
  std::shared_ptr<const CompiledNetwork> snapshot;
  std::vector<NodeId> node_map;
  std::vector<EdgeId> edge_map;
  std::vector<EdgeId> touched_edges;
  DeltaClass applied = DeltaClass::kProbabilityOnly;
};

class CompiledNetwork {
 public:
  /// The pure-shape third of the snapshot: endpoints, kinds and the CSR
  /// adjacency — everything a topology edit (and only a topology edit)
  /// can disturb. Shared by shared_ptr across capacity overlays, so a
  /// capacity-only delta copies the capacity column and nothing else.
  struct Topology {
    int num_nodes = 0;
    std::vector<NodeId> u;            ///< per edge: tail (directed) / endpoint
    std::vector<NodeId> v;            ///< per edge: head / other endpoint
    std::vector<EdgeKind> kind;       ///< per edge
    std::vector<std::size_t> offsets; ///< CSR: num_nodes + 1 entries
    std::vector<EdgeId> incident;     ///< CSR: packed incident edge ids
  };

  /// The capacity/topology half of the snapshot, shared (never copied)
  /// across probability overlays. `id` is process-unique: two
  /// CompiledNetworks agree on topology and capacities iff their
  /// structure ids are equal. `parent_id` links a structure minted by
  /// apply_delta to the structure it patched (0 = compiled from a
  /// builder); the full ancestry lives in DeltaJournal.
  struct Structure {
    std::shared_ptr<const Topology> topology;
    std::vector<Capacity> capacity;   ///< per edge
    std::uint64_t id = 0;             ///< process-unique structure identity
    std::uint64_t parent_id = 0;      ///< structure this one was patched from
  };

  /// Freezes `net` into a snapshot. Edge and incidence order are
  /// preserved exactly, so every enumeration over the snapshot visits
  /// configurations in the same order as one over the builder.
  static std::shared_ptr<const CompiledNetwork> compile(
      const FlowNetwork& net);

  /// Reassembles a snapshot from previously extracted arrays — the
  /// deserialization entry point (graph/serialize.hpp). All columns are
  /// adopted verbatim (the caller vouches for their internal
  /// consistency; the deserializer validates shapes and ranges before
  /// calling this), so a persisted snapshot restores BITWISE, including
  /// the precomputed log columns. Structure identity is process-local
  /// and therefore NOT restored: a fresh structure id is minted and
  /// parent_id is 0 — the persisted lineage lives in the store's
  /// journal, not in the id counter. Throws std::invalid_argument when
  /// the column lengths disagree with the topology.
  static std::shared_ptr<const CompiledNetwork> from_parts(
      Topology topology, std::vector<Capacity> capacity,
      std::vector<double> failure_prob, std::vector<double> log_failure,
      std::vector<double> log_survival);

  /// Probability overlay: a new snapshot sharing THIS snapshot's
  /// Structure (same structure_id()), with edge `id` failing with
  /// probability `p`. Throws std::invalid_argument for a bad edge id or
  /// p outside [0, 1). Cost: one copy of the probability columns.
  std::shared_ptr<const CompiledNetwork> with_failure_prob(EdgeId id,
                                                           double p) const;

  /// Bulk probability overlay: a new snapshot sharing THIS snapshot's
  /// Structure with the whole probability column replaced (one entry per
  /// edge, each in [0, 1)). The fast path for "re-sync probabilities
  /// after an alias edit" — structural caches keyed on structure_id()
  /// remain valid by construction.
  std::shared_ptr<const CompiledNetwork> with_failure_probs(
      std::span<const double> probs) const;

  /// Successor snapshot under `delta` (see graph/delta.hpp for the edit
  /// and id semantics). Shares every block the delta does not touch:
  /// probability-only deltas share the whole Structure (same structure
  /// id); capacity-only deltas share the Topology block and mint a new
  /// structure id with parent_id linking back here; topology deltas
  /// patch the CSR arrays (compaction + append). The result is
  /// array-identical to rebuilding the edited network and compiling it
  /// from scratch. Structure-minting deltas are recorded in
  /// DeltaJournal. Throws std::invalid_argument on an invalid delta.
  CompiledDelta apply_delta(const NetworkDelta& delta) const;

  int num_nodes() const noexcept { return topology().num_nodes; }
  int num_edges() const noexcept {
    return static_cast<int>(topology().u.size());
  }

  bool valid_node(NodeId n) const noexcept {
    return n >= 0 && n < topology().num_nodes;
  }
  bool valid_edge(EdgeId e) const noexcept {
    return e >= 0 && e < num_edges();
  }

  NodeId edge_u(EdgeId e) const {
    return topology().u[static_cast<std::size_t>(e)];
  }
  NodeId edge_v(EdgeId e) const {
    return topology().v[static_cast<std::size_t>(e)];
  }
  EdgeKind edge_kind(EdgeId e) const {
    return topology().kind[static_cast<std::size_t>(e)];
  }
  bool edge_directed(EdgeId e) const {
    return edge_kind(e) == EdgeKind::kDirected;
  }
  Capacity edge_capacity(EdgeId e) const {
    return structure_->capacity[static_cast<std::size_t>(e)];
  }
  double failure_prob(EdgeId e) const {
    return failure_prob_[static_cast<std::size_t>(e)];
  }
  /// log(p(e)); -inf for p = 0 (callers on the sampling/scoring paths
  /// branch on p == 0 first).
  double log_failure(EdgeId e) const {
    return log_failure_[static_cast<std::size_t>(e)];
  }
  /// log1p(-p(e)) — the alive factor's log, precomputed once per snapshot
  /// so samplers and what-if scorers never re-derive it per configuration.
  double log_survival(EdgeId e) const {
    return log_survival_[static_cast<std::size_t>(e)];
  }

  /// Edge ids incident to `n` (direction-insensitive), CSR slice.
  std::span<const EdgeId> incident_edges(NodeId n) const {
    const Topology& topo = topology();
    const auto i = static_cast<std::size_t>(n);
    return {topo.incident.data() + topo.offsets[i],
            topo.offsets[i + 1] - topo.offsets[i]};
  }

  /// Per-edge failure probabilities, indexed by edge id (the whole
  /// column, no copy).
  std::span<const double> failure_probs() const noexcept {
    return failure_prob_;
  }

  bool fits_mask() const noexcept { return num_edges() <= kMaxMaskBits; }

  /// Topology + capacity identity (see Structure::id).
  std::uint64_t structure_id() const noexcept { return structure_->id; }
  /// Structure this snapshot was delta-patched from (0 = compiled root).
  std::uint64_t parent_structure_id() const noexcept {
    return structure_->parent_id;
  }

  const Structure& structure() const noexcept { return *structure_; }
  const Topology& topology() const noexcept { return *structure_->topology; }

 private:
  CompiledNetwork() = default;

  /// Mints a fresh process-unique Structure::id (shared by compile()
  /// and the delta paths in graph/delta.cpp).
  static std::uint64_t next_structure_id();

  std::shared_ptr<const Structure> structure_;
  std::vector<double> failure_prob_;
  std::vector<double> log_failure_;
  std::vector<double> log_survival_;
};

/// Zero-copy view of a node-induced side component of one snapshot:
/// index-translation tables only, with the snapshot pinned by shared_ptr.
/// View node/edge ids are dense and ordered by original id — identical
/// numbering to a copied side subnetwork, so side failure masks are
/// unchanged bit for bit.
class NetworkView {
 public:
  NetworkView() = default;

  /// Whole-network view (identity translation).
  explicit NetworkView(std::shared_ptr<const CompiledNetwork> snapshot);

  /// View induced by the nodes with `in_side[n] == true`; keeps exactly
  /// the edges with both endpoints inside. `in_side.size()` must equal
  /// the snapshot's node count.
  NetworkView(std::shared_ptr<const CompiledNetwork> snapshot,
              const std::vector<bool>& in_side);

  int num_nodes() const noexcept { return static_cast<int>(node_map_.size()); }
  int num_edges() const noexcept { return static_cast<int>(edge_map_.size()); }
  bool fits_mask() const noexcept { return num_edges() <= kMaxMaskBits; }

  /// Endpoints / attributes of view edge `e`, endpoints in VIEW node ids.
  NodeId edge_u(EdgeId e) const {
    return node_to_view_[static_cast<std::size_t>(
        snapshot_->edge_u(original_edge(e)))];
  }
  NodeId edge_v(EdgeId e) const {
    return node_to_view_[static_cast<std::size_t>(
        snapshot_->edge_v(original_edge(e)))];
  }
  EdgeKind edge_kind(EdgeId e) const {
    return snapshot_->edge_kind(original_edge(e));
  }
  bool edge_directed(EdgeId e) const {
    return snapshot_->edge_directed(original_edge(e));
  }
  Capacity edge_capacity(EdgeId e) const {
    return snapshot_->edge_capacity(original_edge(e));
  }
  double failure_prob(EdgeId e) const {
    return snapshot_->failure_prob(original_edge(e));
  }

  /// Per-view-edge failure probabilities (gathered through the
  /// translation table — the only per-edge copy a view ever makes, and
  /// only when a caller asks for the compact vector).
  std::vector<double> failure_probs() const;

  // --- translation --------------------------------------------------

  NodeId original_node(NodeId view_node) const {
    return node_map_[static_cast<std::size_t>(view_node)];
  }
  EdgeId original_edge(EdgeId view_edge) const {
    return edge_map_[static_cast<std::size_t>(view_edge)];
  }
  /// kInvalidNode / kInvalidEdge when outside the view.
  NodeId view_node(NodeId original) const {
    return node_to_view_[static_cast<std::size_t>(original)];
  }
  EdgeId view_edge(EdgeId original) const {
    return edge_to_view_[static_cast<std::size_t>(original)];
  }

  const std::vector<NodeId>& node_map() const noexcept { return node_map_; }
  const std::vector<EdgeId>& edge_map() const noexcept { return edge_map_; }
  const std::vector<NodeId>& node_to_view() const noexcept {
    return node_to_view_;
  }
  const std::vector<EdgeId>& edge_to_view() const noexcept {
    return edge_to_view_;
  }

  /// Translates an alive-edge mask over the ORIGINAL network into view
  /// numbering (edges outside the view are dropped) and back.
  Mask project_mask(Mask original_alive) const;
  Mask lift_mask(Mask view_alive) const;

  const CompiledNetwork& snapshot() const noexcept { return *snapshot_; }
  const std::shared_ptr<const CompiledNetwork>& snapshot_ptr() const noexcept {
    return snapshot_;
  }

 private:
  std::shared_ptr<const CompiledNetwork> snapshot_;
  std::vector<NodeId> node_map_;     ///< view node id -> original node id
  std::vector<EdgeId> edge_map_;     ///< view edge id -> original edge id
  std::vector<NodeId> node_to_view_; ///< original node -> view id or invalid
  std::vector<EdgeId> edge_to_view_; ///< original edge -> view id or invalid
};

}  // namespace streamrel
