#pragma once
// The flow-network model from the paper: a P2P streaming system is a graph
// G = (V, E) where each link e carries up to c(e) unit-rate sub-streams and
// fails independently with probability p(e). A flow demand D = (s, t, d)
// asks for d unit sub-streams from source s to sink t.
//
// Links may be directed (an overlay push connection) or undirected (a
// symmetric peering link). An undirected link is ONE failing unit that can
// carry up to c(e) sub-streams in each direction.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "streamrel/util/bitops.hpp"

namespace streamrel {

class CompiledNetwork;

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Capacity = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

enum class EdgeKind : std::uint8_t {
  kDirected,
  kUndirected,
};

/// A link of the streaming system.
struct Edge {
  NodeId u = kInvalidNode;  ///< Tail for directed edges.
  NodeId v = kInvalidNode;  ///< Head for directed edges.
  Capacity capacity = 0;    ///< Max sub-streams carried (each direction if undirected).
  double failure_prob = 0;  ///< Independent failure probability, in [0, 1).
  EdgeKind kind = EdgeKind::kUndirected;

  bool directed() const noexcept { return kind == EdgeKind::kDirected; }

  /// The endpoint that is not `n`. Requires n == u or n == v.
  NodeId other(NodeId n) const noexcept { return n == u ? v : u; }
};

/// A stream-delivery request: `rate` unit sub-streams from source to sink.
struct FlowDemand {
  NodeId source = kInvalidNode;
  NodeId sink = kInvalidNode;
  Capacity rate = 1;
};

/// Mutable flow-network container. Node ids are dense [0, num_nodes).
/// Edge ids are dense [0, num_edges) in insertion order; failure
/// configurations index edges by these ids.
class FlowNetwork {
 public:
  FlowNetwork() = default;
  explicit FlowNetwork(int num_nodes);

  NodeId add_node();
  /// Adds `count` nodes, returning the id of the first.
  NodeId add_nodes(int count);

  /// Adds a link. Throws std::invalid_argument for out-of-range endpoints,
  /// self-loops, negative capacity, or failure probability outside [0, 1).
  EdgeId add_edge(NodeId u, NodeId v, Capacity capacity, double failure_prob,
                  EdgeKind kind);
  EdgeId add_directed_edge(NodeId u, NodeId v, Capacity capacity,
                           double failure_prob) {
    return add_edge(u, v, capacity, failure_prob, EdgeKind::kDirected);
  }
  EdgeId add_undirected_edge(NodeId u, NodeId v, Capacity capacity,
                             double failure_prob) {
    return add_edge(u, v, capacity, failure_prob, EdgeKind::kUndirected);
  }

  int num_nodes() const noexcept { return num_nodes_; }
  int num_edges() const noexcept { return static_cast<int>(edges_.size()); }

  const Edge& edge(EdgeId id) const { return edges_[static_cast<std::size_t>(id)]; }
  std::span<const Edge> edges() const noexcept { return edges_; }

  /// Replaces the failure probability of one edge (used by sweeps).
  void set_failure_prob(EdgeId id, double p);
  /// Replaces the capacity of one edge.
  void set_capacity(EdgeId id, Capacity c);

  bool valid_node(NodeId n) const noexcept { return n >= 0 && n < num_nodes_; }
  bool valid_edge(EdgeId e) const noexcept {
    return e >= 0 && e < num_edges();
  }

  /// Edge ids incident to `n` (direction-insensitive).
  const std::vector<EdgeId>& incident_edges(NodeId n) const {
    return incident_[static_cast<std::size_t>(n)];
  }

  /// True when every edge fits in one 64-bit failure mask.
  bool fits_mask() const noexcept { return num_edges() <= kMaxMaskBits; }
  /// Mask with one bit per edge. Throws if !fits_mask().
  Mask all_edges_mask() const;

  /// Per-edge failure probabilities, indexed by edge id.
  std::vector<double> failure_probs() const;

  /// Sum of capacities over a set of edge ids.
  Capacity total_capacity(const std::vector<EdgeId>& ids) const;

  /// Throws std::invalid_argument unless the demand endpoints are distinct
  /// valid nodes and the rate is positive.
  void check_demand(const FlowDemand& demand) const;

  /// Human-readable one-line summary ("12 nodes, 17 edges (undirected)").
  std::string summary() const;

  /// Freezes the current state into an immutable, shareable snapshot
  /// (CSR adjacency + structure-of-arrays columns; see graph/compiled.hpp).
  /// The snapshot does not track later edits to this builder.
  std::shared_ptr<const CompiledNetwork> compile() const;

 private:
  int num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> incident_;
};

/// Replicated-source transform: adds a virtual super source wired to each
/// listed server with a perfect (p = 0) infinite-capacity feed link, so
/// multi-origin deployments ("any of these servers can push the stream")
/// reduce to the single-source model every algorithm here expects.
/// Returns the id of the new source node; `net` gains 1 node and
/// |servers| edges (appended last, so existing edge ids are unchanged).
NodeId merge_sources(FlowNetwork& net, const std::vector<NodeId>& servers);

}  // namespace streamrel
