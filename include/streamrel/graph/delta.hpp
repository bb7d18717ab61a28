#pragma once
// Network deltas — the edit language of a live swarm.
//
// A P2P overlay is never static: peers join and leave, link quality
// drifts, capacities get re-provisioned. A NetworkDelta captures one
// batch of such edits against a specific network state, classified by
// how much cached structure the edit can possibly disturb:
//
//   * kProbabilityOnly — only p(e) moved. Masks, assignment sets and
//     partitions are all probability-independent (§III-C), so EVERY
//     structural artifact survives; the successor snapshot shares the
//     whole Structure block (same structure id).
//   * kCapacityOnly — capacities moved but the graph shape did not.
//     The successor snapshot shares the Topology block (CSR arrays,
//     endpoints, kinds) and copies only the capacity column; cached
//     artifacts survive per-cut: a mask table is invalid only when its
//     side contains a touched edge, an assignment set only when the
//     cut itself was crossed.
//   * kTopology — edges or nodes appeared/disappeared. The successor
//     snapshot is built by patching the CSR arrays (compaction +
//     append), and structural caches for the old shape are dead.
//
// Identifier semantics: every id in a delta refers to the PRE-delta
// network, with one extension — edges added by the delta may reference
// nodes the same delta adds (ids num_nodes .. num_nodes+nodes_added-1).
// Removals may only name pre-existing nodes/edges. Removing a node
// removes every incident edge, including ones the delta just added.
// After application, surviving nodes/edges keep their relative order and
// are renumbered densely; additions append. The node_map / edge_map in
// the application results translate old ids to successor ids.
//
// The successor produced by apply_delta is BITWISE-IDENTICAL (structure
// arrays, CSR layout, probability columns) to rebuilding the edited
// network from scratch in the builder and calling compile() — delta
// recompilation is a cache, never an approximation.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "streamrel/graph/flow_network.hpp"

namespace streamrel {

enum class DeltaClass {
  kProbabilityOnly,  ///< only failure probabilities moved
  kCapacityOnly,     ///< capacities moved, topology unchanged
  kTopology,         ///< edges/nodes added or removed
};

std::string_view to_string(DeltaClass c) noexcept;

/// One batch of edits against a specific network state. Build with the
/// fluent setters; apply with apply_delta (builder) or
/// CompiledNetwork::apply_delta (snapshot).
struct NetworkDelta {
  struct ProbEdit {
    EdgeId edge = kInvalidEdge;
    double failure_prob = 0.0;
  };
  struct CapacityEdit {
    EdgeId edge = kInvalidEdge;
    Capacity capacity = 0;
  };
  struct EdgeAdd {
    NodeId u = kInvalidNode;  ///< pre-delta id, or num_nodes+i for added node i
    NodeId v = kInvalidNode;
    Capacity capacity = 0;
    double failure_prob = 0.0;
    EdgeKind kind = EdgeKind::kUndirected;
  };

  std::vector<ProbEdit> prob_edits;
  std::vector<CapacityEdit> capacity_edits;
  std::vector<EdgeAdd> edge_adds;
  std::vector<EdgeId> edge_removes;  ///< pre-delta ids
  std::vector<NodeId> node_removes;  ///< pre-delta ids; incident edges go too
  int nodes_added = 0;

  NetworkDelta& set_failure_prob(EdgeId edge, double p) {
    prob_edits.push_back({edge, p});
    return *this;
  }
  NetworkDelta& set_capacity(EdgeId edge, Capacity c) {
    capacity_edits.push_back({edge, c});
    return *this;
  }
  NetworkDelta& add_edge(NodeId u, NodeId v, Capacity capacity,
                         double failure_prob,
                         EdgeKind kind = EdgeKind::kUndirected) {
    edge_adds.push_back({u, v, capacity, failure_prob, kind});
    return *this;
  }
  /// Returns the id the new node will have BEFORE compaction (old
  /// num_nodes + additions so far); pass `pre_delta_nodes` = the node
  /// count of the network the delta targets.
  NodeId add_node(int pre_delta_nodes) {
    return static_cast<NodeId>(pre_delta_nodes + nodes_added++);
  }
  NetworkDelta& remove_edge(EdgeId edge) {
    edge_removes.push_back(edge);
    return *this;
  }
  NetworkDelta& remove_node(NodeId node) {
    node_removes.push_back(node);
    return *this;
  }

  bool empty() const noexcept {
    return prob_edits.empty() && capacity_edits.empty() &&
           edge_adds.empty() && edge_removes.empty() &&
           node_removes.empty() && nodes_added == 0;
  }

  /// The strongest mutation class present (kTopology > kCapacityOnly >
  /// kProbabilityOnly). An empty delta classifies as kProbabilityOnly.
  DeltaClass classify() const noexcept {
    if (!edge_adds.empty() || !edge_removes.empty() ||
        !node_removes.empty() || nodes_added != 0) {
      return DeltaClass::kTopology;
    }
    if (!capacity_edits.empty()) return DeltaClass::kCapacityOnly;
    return DeltaClass::kProbabilityOnly;
  }
};

/// apply_delta(FlowNetwork) result: the edited builder plus the id
/// translations (old id -> new id, kInvalidNode/kInvalidEdge = removed).
struct DeltaApplication {
  FlowNetwork net;
  std::vector<NodeId> node_map;
  std::vector<EdgeId> edge_map;
  DeltaClass applied = DeltaClass::kProbabilityOnly;
};

/// Applies `delta` to a builder network, validating every edit (throws
/// std::invalid_argument on out-of-range ids, edits to removed entities,
/// duplicate removals, probabilities outside [0, 1), negative
/// capacities). The result's edge order is: surviving old edges in old-id
/// order, then added edges in add order — exactly the order a from-scratch
/// rebuild would produce, so compile() of the result is array-identical to
/// CompiledNetwork::apply_delta of the matching snapshot.
DeltaApplication apply_delta(const FlowNetwork& net,
                             const NetworkDelta& delta);

/// In-place convenience: probability/capacity deltas mutate `net`
/// directly; topology deltas rebuild and replace it. Returns the id maps.
DeltaApplication apply_delta_in_place(FlowNetwork& net,
                                      const NetworkDelta& delta);

/// One journal entry: how a compiled structure came to be. Snapshots
/// produced by CompiledNetwork::apply_delta record their parentage here,
/// so a serving layer can walk the ancestry of any structure id it holds
/// artifacts for and decide what survived.
struct DeltaRecord {
  std::uint64_t structure_id = 0;
  std::uint64_t parent_structure_id = 0;  ///< 0 = compiled from a builder
  DeltaClass delta_class = DeltaClass::kProbabilityOnly;
  int capacity_edits = 0;
  int edges_added = 0;
  int edges_removed = 0;
  int nodes_added = 0;
  int nodes_removed = 0;
};

/// Process-wide, bounded (FIFO-evicted) registry of delta records,
/// linking successor snapshots to their parents by structure id.
/// Thread-safe; lookups never block recording for long.
class DeltaJournal {
 public:
  static DeltaJournal& instance();

  void record(const DeltaRecord& record);
  std::optional<DeltaRecord> lookup(std::uint64_t structure_id) const;
  /// Ancestry of `structure_id`, most recent first, walking
  /// parent_structure_id links until a root (or an evicted record) is
  /// reached. Empty when the id was never recorded.
  std::vector<DeltaRecord> chain(std::uint64_t structure_id) const;
  std::size_t size() const;

 private:
  DeltaJournal() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace streamrel
