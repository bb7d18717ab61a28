#pragma once
// Elementary graph algorithms on FlowNetwork: reachability, connected
// components, and bridge detection (the paper's Fig.-2 special case of a
// bottleneck set of size one).

#include <vector>

#include "streamrel/graph/flow_network.hpp"

namespace streamrel {

/// Nodes reachable from `from` with every edge alive. With
/// `respect_direction`, directed edges are traversed u -> v only;
/// undirected edges are traversed both ways regardless.
std::vector<bool> reachable_nodes(const FlowNetwork& net, NodeId from,
                                  bool respect_direction = true);

/// Same, but only edges whose bit is set in `alive` exist. Requires
/// net.fits_mask().
std::vector<bool> reachable_nodes_masked(const FlowNetwork& net, NodeId from,
                                         Mask alive,
                                         bool respect_direction = true);

/// Per-edge flags, true for each link in `removed`, for the `_without`
/// functions below. Throws on an invalid edge id.
std::vector<bool> removed_edge_flags(const FlowNetwork& net,
                                     const std::vector<EdgeId>& removed);

/// Nodes reachable from `from` once the edges flagged in `gone` are
/// removed; directed edges are traversed u -> v only. With `backward` they
/// are traversed v -> u instead, giving the nodes that reach `from`.
std::vector<bool> reachable_nodes_without(const FlowNetwork& net, NodeId from,
                                          const std::vector<bool>& gone,
                                          bool backward = false);

/// Direction-insensitive connected components. Returns the component id of
/// each node (ids are dense, 0-based, in order of first discovery).
struct Components {
  std::vector<int> id;  ///< per node
  int count = 0;
};
Components connected_components(const FlowNetwork& net);

/// Direction-insensitive connected components when only `alive` edges
/// exist. Requires net.fits_mask().
Components connected_components_masked(const FlowNetwork& net, Mask alive);

/// Direction-insensitive connected components once the edges flagged in
/// `gone` are removed, numbered as connected_components numbers them.
Components connected_components_without(const FlowNetwork& net,
                                        const std::vector<bool>& gone);

/// True if removing `removed` edges leaves no s -> t path.
bool removal_disconnects(const FlowNetwork& net, NodeId s, NodeId t,
                         const std::vector<EdgeId>& removed,
                         bool respect_direction = true);

/// All bridge edges in the direction-insensitive sense: edges whose removal
/// increases the number of connected components. Parallel edges are never
/// bridges. Runs Tarjan's low-link algorithm iteratively.
std::vector<EdgeId> find_bridges(const FlowNetwork& net);

}  // namespace streamrel
