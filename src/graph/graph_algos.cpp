#include "streamrel/graph/graph_algos.hpp"

#include <algorithm>
#include <stdexcept>

namespace streamrel {

namespace {

// How a BFS may traverse a directed edge; undirected edges go both ways.
enum class Follow { kBothWays, kForward, kBackward };

Follow follow(bool respect_direction) {
  return respect_direction ? Follow::kForward : Follow::kBothWays;
}

// Shared BFS. `alive(id)` filters edges; `dir` limits directed-edge
// traversal to tail -> head (kForward) or head -> tail (kBackward).
template <typename AliveFn>
std::vector<bool> bfs(const FlowNetwork& net, NodeId from, AliveFn alive,
                      Follow dir) {
  if (!net.valid_node(from)) throw std::invalid_argument("bad start node");
  std::vector<bool> seen(static_cast<std::size_t>(net.num_nodes()), false);
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(net.num_nodes()));
  seen[static_cast<std::size_t>(from)] = true;
  queue.push_back(from);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    for (EdgeId id : net.incident_edges(n)) {
      if (!alive(id)) continue;
      const Edge& e = net.edge(id);
      if (e.directed() && dir != Follow::kBothWays &&
          (dir == Follow::kForward ? e.u : e.v) != n) {
        continue;
      }
      const NodeId next = e.other(n);
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = true;
        queue.push_back(next);
      }
    }
  }
  return seen;
}

auto not_gone(const std::vector<bool>& gone) {
  return [&gone](EdgeId id) { return !gone[static_cast<std::size_t>(id)]; };
}

}  // namespace

std::vector<bool> reachable_nodes(const FlowNetwork& net, NodeId from,
                                  bool respect_direction) {
  return bfs(
      net, from, [](EdgeId) { return true; }, follow(respect_direction));
}

std::vector<bool> reachable_nodes_masked(const FlowNetwork& net, NodeId from,
                                         Mask alive, bool respect_direction) {
  if (!net.fits_mask()) {
    throw std::invalid_argument("network too large for edge masks");
  }
  return bfs(
      net, from, [alive](EdgeId id) { return test_bit(alive, id); },
      follow(respect_direction));
}

std::vector<bool> reachable_nodes_without(const FlowNetwork& net, NodeId from,
                                          const std::vector<bool>& gone,
                                          bool backward) {
  return bfs(net, from, not_gone(gone),
             backward ? Follow::kBackward : Follow::kForward);
}

namespace {

template <typename AliveFn>
Components components_impl(const FlowNetwork& net, AliveFn alive) {
  Components comps;
  comps.id.assign(static_cast<std::size_t>(net.num_nodes()), -1);
  std::vector<NodeId> queue;
  for (NodeId root = 0; root < net.num_nodes(); ++root) {
    if (comps.id[static_cast<std::size_t>(root)] != -1) continue;
    const int cid = comps.count++;
    comps.id[static_cast<std::size_t>(root)] = cid;
    queue.clear();
    queue.push_back(root);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId n = queue[head];
      for (EdgeId id : net.incident_edges(n)) {
        if (!alive(id)) continue;
        const NodeId next = net.edge(id).other(n);
        if (comps.id[static_cast<std::size_t>(next)] == -1) {
          comps.id[static_cast<std::size_t>(next)] = cid;
          queue.push_back(next);
        }
      }
    }
  }
  return comps;
}

}  // namespace

Components connected_components(const FlowNetwork& net) {
  return components_impl(net, [](EdgeId) { return true; });
}

Components connected_components_masked(const FlowNetwork& net, Mask alive) {
  if (!net.fits_mask()) {
    throw std::invalid_argument("network too large for edge masks");
  }
  return components_impl(net,
                         [alive](EdgeId id) { return test_bit(alive, id); });
}

Components connected_components_without(const FlowNetwork& net,
                                        const std::vector<bool>& gone) {
  return components_impl(net, not_gone(gone));
}

std::vector<bool> removed_edge_flags(const FlowNetwork& net,
                                     const std::vector<EdgeId>& removed) {
  std::vector<bool> gone(static_cast<std::size_t>(net.num_edges()), false);
  for (EdgeId id : removed) {
    if (!net.valid_edge(id)) throw std::invalid_argument("bad edge id");
    gone[static_cast<std::size_t>(id)] = true;
  }
  return gone;
}

bool removal_disconnects(const FlowNetwork& net, NodeId s, NodeId t,
                         const std::vector<EdgeId>& removed,
                         bool respect_direction) {
  if (!net.valid_node(s) || !net.valid_node(t)) {
    throw std::invalid_argument("bad endpoints");
  }
  const std::vector<bool> gone = removed_edge_flags(net, removed);
  const auto seen = bfs(net, s, not_gone(gone), follow(respect_direction));
  return !seen[static_cast<std::size_t>(t)];
}

std::vector<EdgeId> find_bridges(const FlowNetwork& net) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, -1);
  std::vector<EdgeId> bridges;
  int timer = 0;

  // Iterative DFS; each stack frame remembers which incident edge index
  // to resume from and the edge used to enter the node (so one copy of a
  // parallel pair is not treated as the tree edge twice).
  struct Frame {
    NodeId node;
    EdgeId in_edge;
    std::size_t next_idx;
  };
  std::vector<Frame> stack;

  for (NodeId root = 0; root < net.num_nodes(); ++root) {
    if (disc[static_cast<std::size_t>(root)] != -1) continue;
    stack.push_back({root, kInvalidEdge, 0});
    disc[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = timer++;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const auto& inc = net.incident_edges(fr.node);
      if (fr.next_idx < inc.size()) {
        const EdgeId id = inc[fr.next_idx++];
        if (id == fr.in_edge) continue;  // don't reuse the entry edge
        const Edge& e = net.edge(id);
        const NodeId next = e.other(fr.node);
        const auto ni = static_cast<std::size_t>(next);
        if (disc[ni] == -1) {
          disc[ni] = low[ni] = timer++;
          stack.push_back({next, id, 0});
        } else {
          low[static_cast<std::size_t>(fr.node)] =
              std::min(low[static_cast<std::size_t>(fr.node)], disc[ni]);
        }
      } else {
        const Frame done = fr;
        stack.pop_back();
        if (!stack.empty()) {
          const auto pi = static_cast<std::size_t>(stack.back().node);
          const auto ci = static_cast<std::size_t>(done.node);
          low[pi] = std::min(low[pi], low[ci]);
          if (low[ci] > disc[pi]) bridges.push_back(done.in_edge);
        }
      }
    }
  }
  std::sort(bridges.begin(), bridges.end());
  return bridges;
}

}  // namespace streamrel
