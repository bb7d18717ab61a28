#include "streamrel/reliability/factoring.hpp"

#include <stdexcept>
#include <vector>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

enum class EdgeState : char { kUndecided, kUp, kDown };

class FactoringSolver {
 public:
  FactoringSolver(const FlowNetwork& net, const FlowDemand& demand,
                  const FactoringOptions& options, const ExecContext* ctx)
      : net_(net),
        demand_(demand),
        options_(options),
        ctx_(ctx),
        residual_(net),
        state_(static_cast<std::size_t>(net.num_edges()),
               EdgeState::kUndecided),
        alive_(static_cast<std::size_t>(net.num_edges()), true) {}

  double run() { return recurse(); }

  std::uint64_t tree_nodes() const noexcept { return tree_nodes_; }
  std::uint64_t maxflow_calls() const noexcept { return maxflow_calls_; }

 private:
  // Max-flow value with undecided edges counted per `optimistic`.
  Capacity bounded_flow(bool optimistic) {
    for (EdgeId id = 0; id < net_.num_edges(); ++id) {
      const EdgeState st = state_[static_cast<std::size_t>(id)];
      alive_[static_cast<std::size_t>(id)] =
          st == EdgeState::kUp ||
          (st == EdgeState::kUndecided && optimistic);
    }
    residual_.reset_with(alive_);
    maxflow_calls_++;
    STREAMREL_TRACE_SAMPLED_SPAN(mf_span, maxflow_calls_, "maxflow",
                                 "maxflow");
    return solver_.solve(residual_.graph(), demand_.source, demand_.sink,
                         demand_.rate);
  }

  // Picks the undecided edge carrying the most flow in the optimistic
  // solution that the preceding bounded_flow(true) call left in
  // `residual_`: conditioning on a load-bearing edge makes both prunes
  // fire quickly. Falls back to the first undecided edge.
  EdgeId pick_branch_edge() {
    EdgeId best = kInvalidEdge;
    Capacity best_flow = -1;
    for (EdgeId id = 0; id < net_.num_edges(); ++id) {
      if (state_[static_cast<std::size_t>(id)] != EdgeState::kUndecided) {
        continue;
      }
      Capacity f = residual_.edge_net_flow(id);
      if (f < 0) f = -f;
      if (f > best_flow) {
        best_flow = f;
        best = id;
      }
    }
    return best;
  }

  double recurse() {
    if (++tree_nodes_ > options_.max_tree_nodes) {
      throw ExecInterrupted{SolveStatus::kBudgetExhausted};
    }
    if ((tree_nodes_ & (ExecContext::kPollStride - 1)) == 0) {
      if (ctx_) ctx_->check();
      // The factoring tree has no meaningful total, so the reporter runs
      // rate-only (visited tree nodes per second, no ETA).
      progress_.at(tree_nodes_);
    }
    // Optimistic prune: even with all undecided edges up, no d units fit.
    const Capacity optimistic = bounded_flow(/*optimistic=*/true);
    if (optimistic < demand_.rate) return 0.0;
    // Choose the branch edge while the optimistic flow is still in the
    // residual graph (the pessimistic probe below resets it).
    const EdgeId branch = pick_branch_edge();
    // Pessimistic prune: the already-up edges alone route d.
    if (bounded_flow(/*optimistic=*/false) >= demand_.rate) return 1.0;
    // Both prunes failed, so some edge is undecided.
    const double p_fail =
        net_.edge(branch).failure_prob;
    state_[static_cast<std::size_t>(branch)] = EdgeState::kUp;
    const double up = recurse();
    state_[static_cast<std::size_t>(branch)] = EdgeState::kDown;
    const double down = p_fail > 0.0 ? recurse() : 0.0;
    state_[static_cast<std::size_t>(branch)] = EdgeState::kUndecided;
    return (1.0 - p_fail) * up + p_fail * down;
  }

  const FlowNetwork& net_;
  const FlowDemand& demand_;
  const FactoringOptions& options_;
  const ExecContext* ctx_;
  ConfigResidual residual_;
  DinicSolver solver_;
  std::vector<EdgeState> state_;
  std::vector<bool> alive_;
  ProgressMarker progress_{exec_progress(ctx_)};
  std::uint64_t tree_nodes_ = 0;
  std::uint64_t maxflow_calls_ = 0;
};

}  // namespace

ReliabilityResult reliability_factoring(const FlowNetwork& net,
                                        const FlowDemand& demand,
                                        const FactoringOptions& options,
                                        const ExecContext* ctx) {
  net.check_demand(demand);
  FactoringSolver solver(net, demand, options, ctx);
  ReliabilityResult result;
  try {
    result.reliability = solver.run();
  } catch (const ExecInterrupted& stop) {
    result.status = stop.status;
    result.reliability = 0.0;
  }
  result.telemetry.counter(telemetry_keys::kConfigurations) =
      solver.tree_nodes();
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) =
      solver.maxflow_calls();
  return result;
}

}  // namespace streamrel
