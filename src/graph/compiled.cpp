#include "streamrel/graph/compiled.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "streamrel/util/trace.hpp"

namespace streamrel {

std::uint64_t CompiledNetwork::next_structure_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::shared_ptr<const CompiledNetwork> CompiledNetwork::compile(
    const FlowNetwork& net) {
  const auto num_edges = static_cast<std::size_t>(net.num_edges());
  auto topology = std::make_shared<Topology>();
  topology->num_nodes = net.num_nodes();
  topology->u.reserve(num_edges);
  topology->v.reserve(num_edges);
  topology->kind.reserve(num_edges);
  auto structure = std::make_shared<Structure>();
  structure->capacity.reserve(num_edges);
  for (const Edge& e : net.edges()) {
    topology->u.push_back(e.u);
    topology->v.push_back(e.v);
    topology->kind.push_back(e.kind);
    structure->capacity.push_back(e.capacity);
  }
  topology->offsets.reserve(static_cast<std::size_t>(net.num_nodes()) + 1);
  topology->offsets.push_back(0);
  topology->incident.reserve(2 * num_edges);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const std::vector<EdgeId>& inc = net.incident_edges(n);
    topology->incident.insert(topology->incident.end(), inc.begin(),
                              inc.end());
    topology->offsets.push_back(topology->incident.size());
  }
  structure->topology = std::move(topology);
  structure->id = next_structure_id();

  auto compiled = std::shared_ptr<CompiledNetwork>(new CompiledNetwork());
  compiled->structure_ = std::move(structure);
  compiled->failure_prob_.reserve(num_edges);
  compiled->log_failure_.reserve(num_edges);
  compiled->log_survival_.reserve(num_edges);
  for (const Edge& e : net.edges()) {
    compiled->failure_prob_.push_back(e.failure_prob);
    compiled->log_failure_.push_back(
        e.failure_prob > 0.0 ? std::log(e.failure_prob)
                             : -std::numeric_limits<double>::infinity());
    compiled->log_survival_.push_back(std::log1p(-e.failure_prob));
  }
  return compiled;
}

std::shared_ptr<const CompiledNetwork> CompiledNetwork::from_parts(
    Topology topology, std::vector<Capacity> capacity,
    std::vector<double> failure_prob, std::vector<double> log_failure,
    std::vector<double> log_survival) {
  const std::size_t num_edges = topology.u.size();
  if (topology.num_nodes < 0 || topology.v.size() != num_edges ||
      topology.kind.size() != num_edges ||
      topology.offsets.size() !=
          static_cast<std::size_t>(topology.num_nodes) + 1 ||
      capacity.size() != num_edges || failure_prob.size() != num_edges ||
      log_failure.size() != num_edges || log_survival.size() != num_edges) {
    throw std::invalid_argument("from_parts: column length mismatch");
  }
  auto structure = std::make_shared<Structure>();
  structure->topology = std::make_shared<Topology>(std::move(topology));
  structure->capacity = std::move(capacity);
  structure->id = next_structure_id();
  structure->parent_id = 0;

  auto compiled = std::shared_ptr<CompiledNetwork>(new CompiledNetwork());
  compiled->structure_ = std::move(structure);
  compiled->failure_prob_ = std::move(failure_prob);
  compiled->log_failure_ = std::move(log_failure);
  compiled->log_survival_ = std::move(log_survival);
  return compiled;
}

std::shared_ptr<const CompiledNetwork> CompiledNetwork::with_failure_prob(
    EdgeId id, double p) const {
  if (!valid_edge(id)) {
    throw std::invalid_argument("with_failure_prob: bad edge id");
  }
  if (!(p >= 0.0) || !(p < 1.0)) {
    throw std::invalid_argument(
        "with_failure_prob: failure probability not in [0,1)");
  }
  auto overlay = std::shared_ptr<CompiledNetwork>(new CompiledNetwork());
  overlay->structure_ = structure_;  // shared, same structure_id()
  overlay->failure_prob_ = failure_prob_;
  overlay->log_failure_ = log_failure_;
  overlay->log_survival_ = log_survival_;
  const auto i = static_cast<std::size_t>(id);
  overlay->failure_prob_[i] = p;
  overlay->log_failure_[i] =
      p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
  overlay->log_survival_[i] = std::log1p(-p);
  return overlay;
}

std::shared_ptr<const CompiledNetwork> CompiledNetwork::with_failure_probs(
    std::span<const double> probs) const {
  if (probs.size() != failure_prob_.size()) {
    throw std::invalid_argument(
        "with_failure_probs: probability column size mismatch");
  }
  auto overlay = std::shared_ptr<CompiledNetwork>(new CompiledNetwork());
  overlay->structure_ = structure_;  // shared, same structure_id()
  overlay->failure_prob_.assign(probs.begin(), probs.end());
  overlay->log_failure_.reserve(probs.size());
  overlay->log_survival_.reserve(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    const double p = probs[i];
    if (!(p >= 0.0) || !(p < 1.0)) {
      throw std::invalid_argument(
          "with_failure_probs: failure probability not in [0,1)");
    }
    if (p == failure_prob_[i]) {
      // Unchanged entry: copy the derived logs bit-for-bit rather than
      // re-deriving them (same bits either way; cheaper, and keeps the
      // overlay honest as a pure re-sync).
      overlay->log_failure_.push_back(log_failure_[i]);
      overlay->log_survival_.push_back(log_survival_[i]);
    } else {
      overlay->log_failure_.push_back(
          p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity());
      overlay->log_survival_.push_back(std::log1p(-p));
    }
  }
  return overlay;
}

std::shared_ptr<const CompiledNetwork> FlowNetwork::compile() const {
  return CompiledNetwork::compile(*this);
}

NetworkView::NetworkView(std::shared_ptr<const CompiledNetwork> snapshot)
    : snapshot_(std::move(snapshot)) {
  const int n = snapshot_->num_nodes();
  const int m = snapshot_->num_edges();
  node_map_.resize(static_cast<std::size_t>(n));
  node_to_view_.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    node_map_[static_cast<std::size_t>(i)] = i;
    node_to_view_[static_cast<std::size_t>(i)] = i;
  }
  edge_map_.resize(static_cast<std::size_t>(m));
  edge_to_view_.resize(static_cast<std::size_t>(m));
  for (EdgeId i = 0; i < m; ++i) {
    edge_map_[static_cast<std::size_t>(i)] = i;
    edge_to_view_[static_cast<std::size_t>(i)] = i;
  }
}

NetworkView::NetworkView(std::shared_ptr<const CompiledNetwork> snapshot,
                         const std::vector<bool>& in_side)
    : snapshot_(std::move(snapshot)) {
  if (in_side.size() != static_cast<std::size_t>(snapshot_->num_nodes())) {
    throw std::invalid_argument("NetworkView: side vector size mismatch");
  }
  TraceSpan span("network_view");
  // Dense, id-ordered numbering: nodes first, then edges with both
  // endpoints inside, in original-id order.
  node_to_view_.assign(in_side.size(), kInvalidNode);
  for (NodeId n = 0; n < snapshot_->num_nodes(); ++n) {
    if (in_side[static_cast<std::size_t>(n)]) {
      node_to_view_[static_cast<std::size_t>(n)] =
          static_cast<NodeId>(node_map_.size());
      node_map_.push_back(n);
    }
  }
  edge_to_view_.assign(static_cast<std::size_t>(snapshot_->num_edges()),
                       kInvalidEdge);
  for (EdgeId id = 0; id < snapshot_->num_edges(); ++id) {
    const NodeId su = node_to_view_[static_cast<std::size_t>(
        snapshot_->edge_u(id))];
    const NodeId sv = node_to_view_[static_cast<std::size_t>(
        snapshot_->edge_v(id))];
    if (su == kInvalidNode || sv == kInvalidNode) continue;
    edge_to_view_[static_cast<std::size_t>(id)] =
        static_cast<EdgeId>(edge_map_.size());
    edge_map_.push_back(id);
  }
  span.arg("nodes", num_nodes());
  span.arg("links", num_edges());
}

std::vector<double> NetworkView::failure_probs() const {
  std::vector<double> out;
  out.reserve(edge_map_.size());
  for (EdgeId original : edge_map_) {
    out.push_back(snapshot_->failure_prob(original));
  }
  return out;
}

Mask NetworkView::project_mask(Mask original_alive) const {
  Mask out = 0;
  for (std::size_t vid = 0; vid < edge_map_.size(); ++vid) {
    if (test_bit(original_alive, edge_map_[vid])) {
      out |= bit(static_cast<int>(vid));
    }
  }
  return out;
}

Mask NetworkView::lift_mask(Mask view_alive) const {
  Mask out = 0;
  for (std::size_t vid = 0; vid < edge_map_.size(); ++vid) {
    if (test_bit(view_alive, static_cast<int>(vid))) {
      out |= bit(edge_map_[vid]);
    }
  }
  return out;
}

}  // namespace streamrel
