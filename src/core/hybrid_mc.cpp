#include "streamrel/core/hybrid_mc.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "streamrel/core/accumulate.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

// Empirical realized-mask distribution from `samples` sampled side
// configurations.
// Empirical distribution from up to `samples` sampled side
// configurations; a context stop truncates the draw. `drawn` reports the
// samples actually taken (the normalization denominator), so a truncated
// distribution is still a proper empirical distribution.
MaskDistribution sample_side_distribution(
    const SideProblem& side, const AssignmentSet& assignments, Capacity rate,
    std::uint64_t samples, Xoshiro256& rng, std::uint64_t& maxflow_calls,
    const ExecContext* ctx, std::uint64_t& drawn) {
  TraceSpan span("sample_side", "sweep");
  span.arg("side", side.is_source_side ? "s" : "t")
      .arg("samples", samples);
  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(samples);
  }
  SideMaskEvaluator evaluator(side, assignments, rate);
  const std::vector<double> probs = side.view.failure_probs();
  std::unordered_map<Mask, std::uint64_t> counts;
  ProgressMarker progress(exec_progress(ctx));
  drawn = 0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    if ((i & (ExecContext::kPollStride - 1)) == 0) {
      if (ctx && ctx->should_stop()) break;
      progress.at(i);
    }
    Mask config = 0;
    for (std::size_t e = 0; e < probs.size(); ++e) {
      if (!rng.bernoulli(probs[e])) config |= bit(static_cast<int>(e));
    }
    counts[evaluator.realized(config)]++;
    ++drawn;
  }
  progress.at(drawn);
  maxflow_calls += evaluator.maxflow_calls();

  MaskDistribution dist;
  if (drawn == 0) return dist;
  dist.buckets.reserve(counts.size());
  for (const auto& [mask, count] : counts) {
    dist.buckets.emplace_back(
        mask, static_cast<double>(count) / static_cast<double>(drawn));
  }
  std::sort(dist.buckets.begin(), dist.buckets.end());
  dist.total = 1.0;
  return dist;
}

}  // namespace

HybridMonteCarloResult reliability_bottleneck_hybrid(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition,
    const HybridMonteCarloOptions& options, const ExecContext* ctx) {
  net.check_demand(demand);
  if (options.samples_per_side == 0) {
    throw std::invalid_argument("need >= 1 sample per side");
  }

  HybridMonteCarloResult result;
  result.samples_per_side = options.samples_per_side;

  const AssignmentSet assignments =
      enumerate_assignments(net, partition, demand.rate, options.assignments);
  result.num_assignments = assignments.size();
  result.telemetry.counter(telemetry_keys::kAssignments) =
      static_cast<std::uint64_t>(assignments.size());
  if (assignments.size() == 0) return result;

  const SideProblem side_s =
      make_side_problem(net, demand, partition, /*source_side=*/true);
  const SideProblem side_t =
      make_side_problem(net, demand, partition, /*source_side=*/false);

  Xoshiro256 rng_s(options.seed);
  Xoshiro256 rng_t(options.seed);
  rng_t.jump();  // independent substream for the sink side
  std::uint64_t maxflow_calls = 0;
  std::uint64_t drawn_s = 0;
  std::uint64_t drawn_t = 0;
  const MaskDistribution dist_s = sample_side_distribution(
      side_s, assignments, demand.rate, options.samples_per_side, rng_s,
      maxflow_calls, ctx, drawn_s);
  const MaskDistribution dist_t = sample_side_distribution(
      side_t, assignments, demand.rate, options.samples_per_side, rng_t,
      maxflow_calls, ctx, drawn_t);
  if (drawn_s < options.samples_per_side ||
      drawn_t < options.samples_per_side) {
    result.status = ctx ? ctx->stop_status() : SolveStatus::kCancelled;
  }
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) = maxflow_calls;
  result.telemetry.counter(telemetry_keys::kSamples) = drawn_s + drawn_t;
  if (drawn_s == 0 || drawn_t == 0) return result;  // nothing to accumulate

  // Exact accumulation over the 2^k bottleneck configurations.
  std::vector<double> crossing_probs;
  for (EdgeId id : partition.crossing_edges) {
    crossing_probs.push_back(net.edge(id).failure_prob);
  }
  const ConfigProbTable bottleneck_probs(crossing_probs);
  KahanSum total;
  for (Mask alive = 0; alive < (Mask{1} << partition.k()); ++alive) {
    const Mask allowed = assignments.supported_by(alive);
    if (allowed == 0) continue;
    total.add(bottleneck_probs.prob(alive) *
              joint_success_probability(dist_s, dist_t, allowed,
                                        options.accumulation));
  }
  result.estimate = total.value();
  return result;
}

}  // namespace streamrel
