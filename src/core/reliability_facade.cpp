#include "streamrel/core/reliability_facade.hpp"

#include <stdexcept>

#include "streamrel/core/engine.hpp"
#include "streamrel/reliability/reductions.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

std::string_view to_string(Method method) noexcept {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kBottleneck: return "bottleneck";
    case Method::kNaive: return "naive";
    case Method::kFactoring: return "factoring";
    case Method::kFrontier: return "frontier";
    case Method::kHybridMc: return "hybrid-mc";
  }
  return "?";
}

namespace {

// The kAuto policy over the registered engines:
//   bottleneck (when a worthwhile partition exists)
//   > frontier (rate-1 undirected networks too big to enumerate;
//               a state-budget stop falls through)
//   > naive (mask-sized networks up to 22 links)
//   > factoring (a tree-budget stop falls back to naive when possible).
// A deadline/cancellation stop is FINAL wherever it lands — the chain
// never "falls back" past the user's wall clock.
SolveReport solve_auto(const FlowNetwork& net, const FlowDemand& demand,
                       const SolveOptions& options, const ExecContext* ctx,
                       const EngineRegistry& registry) {
  try {
    SolveReport report =
        registry.require(Method::kBottleneck).solve(net, demand, options, ctx);
    // kMaskOverflow means every candidate partition needed more than
    // kMaxMaskBits links in one failure mask — a capability limit of the
    // enumerating decomposition, so the chain moves on to an engine that
    // never builds masks.
    if (report.result.status != SolveStatus::kMaskOverflow) return report;
  } catch (const std::invalid_argument&) {
    // No worthwhile partition: fall through to the baselines.
  }

  // Rate-1 undirected demands on networks too big to enumerate: the
  // frontier DP handles path-like structures of any length exactly.
  const Engine& frontier = registry.require(Method::kFrontier);
  if (!net.fits_mask() && frontier.applicable(net, demand)) {
    SolveReport report = frontier.solve(net, demand, options, ctx);
    if (report.result.status != SolveStatus::kBudgetExhausted) return report;
    // Frontier too wide: fall through to factoring.
  }

  // No exploitable bottleneck: exhaustive enumeration for small networks,
  // factoring otherwise.
  if (net.fits_mask() && net.num_edges() <= 22) {
    return registry.require(Method::kNaive).solve(net, demand, options, ctx);
  }
  SolveReport report =
      registry.require(Method::kFactoring).solve(net, demand, options, ctx);
  if (report.result.status == SolveStatus::kBudgetExhausted &&
      net.fits_mask()) {
    return registry.require(Method::kNaive).solve(net, demand, options, ctx);
  }
  return report;
}

SolveReport dispatch(const FlowNetwork& net, const FlowDemand& demand,
                     const SolveOptions& options, ExecContext& ctx) {
  net.check_demand(demand);
  const EngineRegistry& registry = EngineRegistry::instance();

  // Rate-1 preprocessing: series/parallel/prune reductions are exact and
  // often shrink the instance dramatically (or solve it outright).
  if (options.method == Method::kAuto && options.use_reductions &&
      demand.rate == 1) {
    bool undirected = true;
    for (const Edge& e : net.edges()) undirected &= !e.directed();
    if (undirected) {
      const ReducedNetwork reduced =
          reduce_for_connectivity(net, demand.source, demand.sink);
      const int removed = net.num_edges() - reduced.net.num_edges();
      if (reduced.net.num_edges() == 0) {
        SolveReport report;
        report.method_used = Method::kAuto;
        report.engine = "reductions";
        report.links_reduced = removed;
        report.result.reliability = 0.0;  // s and t disconnected
        report.result.telemetry.counter(telemetry_keys::kLinksReduced) =
            static_cast<std::uint64_t>(removed);
        return report;
      }
      if (reduced.fully_reduced()) {
        SolveReport report;
        report.method_used = Method::kAuto;
        report.engine = "reductions";
        report.links_reduced = removed;
        report.result.reliability = 1.0 - reduced.net.edge(0).failure_prob;
        report.result.telemetry.counter(telemetry_keys::kLinksReduced) =
            static_cast<std::uint64_t>(removed);
        return report;
      }
      if (removed > 0) {
        SolveOptions inner = options;
        inner.use_reductions = false;  // already at a fixpoint
        SolveReport report =
            dispatch(reduced.net, {reduced.source, reduced.sink, 1}, inner,
                     ctx);
        report.partition.reset();  // refers to reduced-network ids
        report.links_reduced = removed;
        report.result.telemetry.counter(telemetry_keys::kLinksReduced) =
            static_cast<std::uint64_t>(removed);
        return report;
      }
    }
  }

  if (options.method == Method::kAuto) {
    return solve_auto(net, demand, options, &ctx, registry);
  }
  return registry.require(options.method).solve(net, demand, options, &ctx);
}

}  // namespace

SolveReport compute_reliability(const FlowNetwork& net,
                                const FlowDemand& demand,
                                const SolveOptions& options) {
  ExecContext local;
  ExecContext* ctx = options.context;
  if (!ctx) {
    if (options.deadline_ms > 0.0) local.set_deadline_ms(options.deadline_ms);
    local.max_threads = options.max_threads;
    ctx = &local;
  }

  TraceSpan span("compute_reliability", "facade");
  span.arg("method", to_string(options.method));

  SolveReport report = dispatch(net, demand, options, *ctx);
  span.arg("engine", report.engine);

  // A deadline/budget stop leaves at best a partial accumulation; attach
  // the cheap polynomial envelope so the caller still gets a bracket.
  if (report.result.status != SolveStatus::kExact && !report.bounds) {
    report.bounds = reliability_bounds(net, demand, options.bounds);
  }

  ctx->telemetry.merge(report.result.telemetry);
  return report;
}

}  // namespace streamrel
