#include "streamrel/reliability/naive.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/incremental_dinic.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

// Sequential from-scratch sweep over an inclusive mask range; shared by
// the sequential and parallel strategies. Polls the context every
// kPollStride configurations; on a stop it sets `aborted` (shared across
// shards) and returns the number of configurations it actually visited.
std::uint64_t sweep_range(const FlowNetwork& net, const FlowDemand& demand,
                          const ConfigProbTable& probs, Mask first, Mask last,
                          KahanSum& sum, std::uint64_t& maxflow_calls,
                          const ExecContext* ctx, std::atomic<bool>& aborted) {
  ConfigResidual residual(net);
  DinicSolver solver;
  ProgressMarker progress(exec_progress(ctx));
  std::uint64_t visited = 0;
  for (Mask alive = first;; ++alive) {
    if (((alive - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (ctx &&
          (aborted.load(std::memory_order_relaxed) || ctx->should_stop())) {
        aborted.store(true, std::memory_order_relaxed);
        break;
      }
      progress.at(visited);
    }
    residual.reset(alive);
    ++maxflow_calls;
    ++visited;
    STREAMREL_TRACE_SAMPLED_SPAN(mf_span, maxflow_calls, "maxflow", "maxflow");
    if (solver.solve(residual.graph(), demand.source, demand.sink,
                     demand.rate) >= demand.rate) {
      sum.add(probs.prob(alive));
    }
    if (alive == last) break;
  }
  progress.at(visited);
  return visited;
}

ReliabilityResult naive_gray(const FlowNetwork& net, const FlowDemand& demand,
                             const ConfigProbTable& probs,
                             const ExecContext* ctx) {
  ReliabilityResult result;
  std::uint64_t configurations = 0;
  KahanSum sum;
  IncrementalMaxFlow inc(net, demand);

  // Gray-code walk: step i toggles one edge, moving from configuration
  // gray_code(i) to gray_code(i+1). The walk starts at gray_code(0) = 0
  // (all edges dead), so kill every edge first.
  for (EdgeId id = 0; id < net.num_edges(); ++id) {
    inc.set_edge_alive(id, false);
  }
  const Mask total = Mask{1} << net.num_edges();
  ProgressMarker progress(exec_progress(ctx));
  for (Mask i = 0;; ++i) {
    if ((i & (ExecContext::kPollStride - 1)) == 0) {
      if (ctx && ctx->should_stop()) {
        result.status = ctx->stop_status();
        break;
      }
      progress.at(i);
    }
    const Mask alive = gray_code(i);
    ++configurations;
    STREAMREL_TRACE_SAMPLED_SPAN(mf_span, i, "maxflow_sync", "maxflow");
    if (inc.admits()) sum.add(probs.prob(alive));
    if (i + 1 == total) break;
    const int flip = gray_flip_bit(i);
    inc.set_edge_alive(flip, !test_bit(alive, flip));
  }
  progress.at(configurations);
  result.telemetry.counter(telemetry_keys::kConfigurations) = configurations;
  // One repair per step.
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) = configurations;
  result.reliability = sum.value();
  return result;
}

}  // namespace

ReliabilityResult reliability_naive(const FlowNetwork& net,
                                    const FlowDemand& demand,
                                    const NaiveOptions& options,
                                    const ExecContext* ctx) {
  net.check_demand(demand);
  if (!net.fits_mask()) {
    throw std::invalid_argument(
        "naive reliability requires <= 63 edges (2^|E| enumeration)");
  }
  const ConfigProbTable probs(net.failure_probs());
  const Mask total = Mask{1} << net.num_edges();

  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(static_cast<std::uint64_t>(total));
  }

  if (options.strategy == NaiveStrategy::kGrayIncremental) {
    return naive_gray(net, demand, probs, ctx);
  }

  ReliabilityResult result;
  std::uint64_t configurations = 0;
  std::uint64_t maxflow_calls = 0;
  std::atomic<bool> aborted{false};

#ifdef _OPENMP
  if (options.strategy == NaiveStrategy::kParallel && total >= 1024) {
    const int threads = static_cast<int>(std::min<Mask>(
        static_cast<Mask>(exec_resolved_threads(ctx)), total));
    std::vector<KahanSum> sums(static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> calls(static_cast<std::size_t>(threads), 0);
    std::vector<std::uint64_t> visited(static_cast<std::size_t>(threads), 0);
#pragma omp parallel num_threads(threads)
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const Mask chunk = total / static_cast<Mask>(threads);
      const Mask first = static_cast<Mask>(tid) * chunk;
      const Mask last = (tid + 1 == static_cast<std::size_t>(threads))
                            ? total - 1
                            : first + chunk - 1;
      visited[tid] = sweep_range(net, demand, probs, first, last, sums[tid],
                                 calls[tid], ctx, aborted);
    }
    KahanSum sum;
    for (std::size_t i = 0; i < sums.size(); ++i) {
      sum.merge(sums[i]);
      maxflow_calls += calls[i];
      configurations += visited[i];
    }
    result.reliability = sum.value();
    if (aborted.load(std::memory_order_relaxed) && ctx) {
      result.status = ctx->stop_status();
    }
    result.telemetry.counter(telemetry_keys::kConfigurations) =
        result.exact() ? total : configurations;
    result.telemetry.counter(telemetry_keys::kMaxflowCalls) = maxflow_calls;
    return result;
  }
#endif

  KahanSum sum;
  configurations = sweep_range(net, demand, probs, 0, total - 1, sum,
                               maxflow_calls, ctx, aborted);
  result.reliability = sum.value();
  if (aborted.load(std::memory_order_relaxed) && ctx) {
    result.status = ctx->stop_status();
  }
  result.telemetry.counter(telemetry_keys::kConfigurations) =
      result.exact() ? total : configurations;
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) = maxflow_calls;
  return result;
}

}  // namespace streamrel
