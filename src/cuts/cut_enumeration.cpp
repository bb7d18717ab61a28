#include "streamrel/cuts/cut_enumeration.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "streamrel/cuts/bottleneck.hpp"

namespace streamrel {

namespace {

std::size_t at(int id) { return static_cast<std::size_t>(id); }

// The arcs leaving each node, in CSR form: undirected links both ways,
// directed ones along their orientation only (as removal_disconnects).
struct Arc {
  EdgeId edge;
  NodeId head;
};

struct Csr {
  std::vector<std::size_t> begin;  ///< per node, plus one sentinel
  std::vector<Arc> arcs;

  explicit Csr(const FlowNetwork& net)
      : begin(at(net.num_nodes()) + 1, 0) {
    for (const Edge& e : net.edges()) {
      ++begin[at(e.u) + 1];
      if (!e.directed()) ++begin[at(e.v) + 1];
    }
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    arcs.resize(begin.back());
    std::vector<std::size_t> fill(begin.begin(), begin.end() - 1);
    for (EdgeId id = 0; id < net.num_edges(); ++id) {
      const Edge& e = net.edge(id);
      arcs[fill[at(e.u)]++] = {id, e.v};
      if (!e.directed()) arcs[fill[at(e.v)]++] = {id, e.u};
    }
  }

  std::span<const Arc> out(NodeId n) const {
    return {arcs.data() + begin[at(n)], arcs.data() + begin[at(n) + 1]};
  }
};

// Bounded search tree over s -> t paths (Provan & Shier). A tree node
// holds the chosen edges X, removed from the graph, and the forbidden
// edges F, which no cut below the node may contain. A cut that contains
// X and avoids F meets every s -> t path of G - X in some edge outside F.
// Branch i on such a path's free edges e_1..e_m takes e_i and forbids
// e_1..e_{i-1}, so every minimal cut is reached exactly once and the
// leaves need no deduplication.
class CutSearch {
 public:
  CutSearch(const FlowNetwork& net, NodeId s, NodeId t,
            const CutEnumerationOptions& options, const ExecContext* ctx)
      : net_(net),
        s_(s),
        t_(t),
        options_(options),
        ctx_(ctx),
        out_arcs_(net),
        removed_(at(net.num_edges()), false),
        forbidden_(at(net.num_edges()), false),
        dist_(at(net.num_nodes())),
        via_(at(net.num_nodes())),
        // No cut has more links than the network.
        budget_(std::min(options.max_size, net.num_edges())),
        found_by_size_(at(std::max(budget_, 0)) + 1, 0) {}

  std::vector<std::vector<EdgeId>> run() {
    if (options_.max_results > 0) visit();
    std::sort(cuts_.begin(), cuts_.end(),
              [](const std::vector<EdgeId>& a, const std::vector<EdgeId>& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return std::lexicographical_compare(a.rbegin(), a.rend(),
                                                    b.rbegin(), b.rend());
              });
    if (cuts_.size() > options_.max_results) {
      cuts_.resize(options_.max_results);
    }
    return std::move(cuts_);
  }

 private:
  static constexpr int kUnreached = std::numeric_limits<int>::max();

  void visit() {
    if (nodes_ % ExecContext::kPollStride == 0 && ctx_) ctx_->check();
    if (++nodes_ > options_.max_branch_nodes) {
      stopped_ = true;
      return;
    }
    // The path's free edges go on a shared arena: children append their
    // own paths after them.
    const std::size_t first = arena_.size();
    if (!shortest_path()) {
      // X disconnects s from t; the root (X empty) is not a cut.
      if (!chosen_.empty() && is_minimal_cutset(net_, s_, t_, chosen_)) {
        record();
      }
      return;
    }
    const std::size_t last = arena_.size();
    std::size_t i = first;
    for (; i < last && !stopped_ &&
           static_cast<int>(chosen_.size()) < budget_;
         ++i) {
      const EdgeId e = arena_[i];
      chosen_.push_back(e);
      removed_[at(e)] = true;
      visit();
      removed_[at(e)] = false;
      chosen_.pop_back();
      forbidden_[at(e)] = true;
    }
    for (std::size_t j = first; j < i; ++j) forbidden_[at(arena_[j])] = false;
    arena_.resize(first);
  }

  // 0-1 BFS from s over G - X where forbidden edges cost 0 and free
  // edges 1. When t is reachable, appends to arena_ the free edges of an
  // s -> t path with as few of them as possible, in path order (none
  // when F alone connects s to t: a dead branch), and returns true.
  bool shortest_path() {
    std::fill(dist_.begin(), dist_.end(), kUnreached);
    dist_[at(s_)] = 0;
    deque_.assign(1, s_);
    while (!deque_.empty()) {
      const NodeId n = deque_.front();
      deque_.pop_front();
      for (const Arc& arc : out_arcs_.out(n)) {
        if (removed_[at(arc.edge)]) continue;
        const int w = forbidden_[at(arc.edge)] ? 0 : 1;
        const int d = dist_[at(n)] + w;
        if (d >= dist_[at(arc.head)]) continue;
        dist_[at(arc.head)] = d;
        via_[at(arc.head)] = arc.edge;
        if (w == 0) {
          deque_.push_front(arc.head);
        } else {
          deque_.push_back(arc.head);
        }
      }
    }
    if (dist_[at(t_)] == kUnreached) return false;
    const std::size_t first = arena_.size();
    for (NodeId n = t_; n != s_; n = net_.edge(via_[at(n)]).other(n)) {
      if (!forbidden_[at(via_[at(n)])]) arena_.push_back(via_[at(n)]);
    }
    std::reverse(arena_.begin() + static_cast<std::ptrdiff_t>(first),
                 arena_.end());
    return true;
  }

  void record() {
    std::vector<EdgeId> cut(chosen_);
    std::sort(cut.begin(), cut.end());
    cuts_.push_back(std::move(cut));
    // Once max_results cuts of size <= j are known, larger cuts fall
    // past the truncation point: stop looking for them.
    ++found_by_size_[chosen_.size()];
    std::size_t total = 0;
    for (int j = 1; j < budget_; ++j) {
      total += found_by_size_[at(j)];
      if (total >= options_.max_results) {
        budget_ = j;
        break;
      }
    }
  }

  const FlowNetwork& net_;
  const NodeId s_;
  const NodeId t_;
  const CutEnumerationOptions& options_;
  const ExecContext* ctx_;
  const Csr out_arcs_;
  std::vector<bool> removed_;    ///< X, per edge
  std::vector<bool> forbidden_;  ///< F, per edge
  std::vector<int> dist_;    ///< free edges on the best path from s
  std::vector<EdgeId> via_;  ///< last edge of that path
  std::deque<NodeId> deque_;
  std::vector<EdgeId> chosen_;
  std::vector<EdgeId> arena_;  ///< free path edges, one block per level
  int budget_;
  std::vector<std::size_t> found_by_size_;
  std::vector<std::vector<EdgeId>> cuts_;
  std::uint64_t nodes_ = 0;
  bool stopped_ = false;
};

}  // namespace

std::vector<std::vector<EdgeId>> enumerate_minimal_cutsets(
    const FlowNetwork& net, NodeId s, NodeId t,
    const CutEnumerationOptions& options, const ExecContext* ctx) {
  if (!net.valid_node(s) || !net.valid_node(t) || s == t) {
    throw std::invalid_argument("bad endpoints");
  }
  return CutSearch(net, s, t, options, ctx).run();
}

}  // namespace streamrel
