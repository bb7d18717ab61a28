#include "streamrel/core/bottleneck_algorithm.hpp"

#include <algorithm>
#include <stdexcept>

#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

BottleneckArtifacts build_bottleneck_artifacts(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options,
    const ExecContext* ctx, const AssignmentSet* reuse_assignments,
    std::shared_ptr<const CompiledNetwork> snapshot, SideReuse* reuse_s,
    SideReuse* reuse_t) {
  net.check_demand(demand);
  if (partition.side_s.size() != static_cast<std::size_t>(net.num_nodes())) {
    throw std::invalid_argument("partition does not match network");
  }
  if (!partition.side_s[static_cast<std::size_t>(demand.source)] ||
      partition.side_s[static_cast<std::size_t>(demand.sink)]) {
    throw std::invalid_argument("demand endpoints on wrong partition sides");
  }

  BottleneckArtifacts artifacts;
  artifacts.partition_stats =
      analyze_partition(net, demand.source, demand.sink, partition);

  // Mask-width ceiling: each side sweep and the accumulation enumerate
  // 2^links configurations in one 64-bit mask. A partition that would
  // overflow the mask is a legitimate input the decomposition simply
  // cannot enumerate — report it as a stop status (so kAuto falls through
  // to a non-enumerating engine) rather than shifting past the mask width.
  if (artifacts.partition_stats.edges_s > kMaxMaskBits ||
      artifacts.partition_stats.edges_t > kMaxMaskBits ||
      artifacts.partition_stats.k > kMaxMaskBits) {
    artifacts.status = SolveStatus::kMaskOverflow;
    return artifacts;
  }

  // If even the full crossing capacity cannot carry d, reliability is 0
  // (paper: "If c(E') < d, the reliability ... is trivially zero").
  {
    TraceSpan span("assignments", "phase");
    span.arg("reused", reuse_assignments != nullptr);
    artifacts.assignments =
        reuse_assignments
            ? *reuse_assignments
            : enumerate_assignments(net, partition, demand.rate,
                                    options.assignments);
    span.arg("count", static_cast<std::int64_t>(artifacts.assignments.size()));
  }
  artifacts.mode_used = artifacts.assignments.mode;
  artifacts.telemetry.counter(telemetry_keys::kAssignments) =
      static_cast<std::uint64_t>(artifacts.assignments.size());
  if (artifacts.assignments.size() == 0) return artifacts;

  try {
    // Side arrays (paper §III-C): the exponential, probability-free part.
    // Both side problems are zero-copy views pinning one shared snapshot.
    // An offered earlier side whose capacities all match is adopted with
    // no sweep and no counters; one whose capacities moved seeds a
    // patched sweep; any other side is swept from scratch.
    if (!snapshot) snapshot = net.compile();
    artifacts.side_s =
        make_side_problem(snapshot, demand, partition, /*source_side=*/true);
    artifacts.side_t = make_side_problem(std::move(snapshot), demand,
                                         partition, /*source_side=*/false);
    const auto prior_of = [](const SideReuse* reuse, const SideProblem& side) {
      return reuse ? side_prior(reuse->side, reuse->array, side)
                   : std::nullopt;
    };
    const std::optional<SidePrior> prior_s =
        prior_of(reuse_s, artifacts.side_s);
    const std::optional<SidePrior> prior_t =
        prior_of(reuse_t, artifacts.side_t);
    const bool adopt_s = prior_s && prior_s->unchanged();
    const bool adopt_t = prior_t && prior_t->unchanged();
    const auto sweep = [&](const SideProblem& side,
                           const std::optional<SidePrior>& prior,
                           const char* phase, Telemetry& side_tel) {
      SideArrayStats stats;
      TraceSpan span(phase, "phase");
      SlabMaskTable table =
          build_side_array(side, artifacts.assignments, demand.rate, &stats,
                           ctx, prior ? &*prior : nullptr);
      side_tel = std::move(stats.telemetry);
      return table;
    };
    Telemetry side_tel_s;
    Telemetry side_tel_t;
    if (!adopt_s) {
      artifacts.array_s = sweep(artifacts.side_s, prior_s, "side_array_s",
                                side_tel_s);
    }
    if (!adopt_t) {
      artifacts.array_t = sweep(artifacts.side_t, prior_t, "side_array_t",
                                side_tel_t);
    }
    // Adopted tables move only after every sweep has finished, so a
    // stopped build leaves the reuse objects intact.
    if (adopt_s) artifacts.array_s = std::move(reuse_s->array);
    if (adopt_t) artifacts.array_t = std::move(reuse_t->array);
    artifacts.telemetry.merge(side_tel_s);
    artifacts.telemetry.merge(side_tel_t);
    artifacts.telemetry.child("side_s").merge(side_tel_s);
    artifacts.telemetry.child("side_t").merge(side_tel_t);
    // What the build did with the offered sides; only a reuse creates
    // these series.
    const auto count = [&](std::string_view key, int sides) {
      if (sides != 0) {
        artifacts.telemetry.counter(key) = static_cast<std::uint64_t>(sides);
      }
    };
    count(telemetry_keys::kSideRepairs, int{adopt_s} + int{adopt_t});
    count(telemetry_keys::kSidePatches, int{prior_s && !adopt_s} +
                                            int{prior_t && !adopt_t});
    artifacts.telemetry.counter(telemetry_keys::kConfigurations) =
        artifacts.array_s.size() + artifacts.array_t.size();
  } catch (const ExecInterrupted& stop) {
    artifacts.status = stop.status;
    artifacts.array_s.clear();
    artifacts.array_t.clear();
  }
  return artifacts;
}

BottleneckProbabilities gather_bottleneck_probabilities(
    std::span<const double> failure_probs, const BottleneckPartition& partition,
    const BottleneckArtifacts& artifacts) {
  const auto prob = [&](EdgeId id) {
    return failure_probs[static_cast<std::size_t>(id)];
  };
  BottleneckProbabilities probs;
  const auto gather_side = [&](const SideProblem& side,
                               std::vector<double>& out) {
    // Read the caller's column, not the side's pinned snapshot: cached
    // views stay correct across probability edits because only this
    // gather (and the crossing list below) feeds probabilities into the
    // accumulation.
    out.reserve(side.view.edge_map().size());
    for (EdgeId original : side.view.edge_map()) {
      out.push_back(prob(original));
    }
  };
  gather_side(artifacts.side_s, probs.side_s);
  gather_side(artifacts.side_t, probs.side_t);
  probs.crossing.reserve(partition.crossing_edges.size());
  for (EdgeId id : partition.crossing_edges) {
    probs.crossing.push_back(prob(id));
  }
  return probs;
}

BottleneckResult accumulate_bottleneck(const BottleneckArtifacts& artifacts,
                                       const BottleneckProbabilities& probs,
                                       AccumulationStrategy accumulation,
                                       const ExecContext* ctx) {
  if (!artifacts.usable()) {
    throw std::invalid_argument("cannot accumulate interrupted artifacts");
  }

  BottleneckResult result;
  result.partition_stats = artifacts.partition_stats;
  result.mode_used = artifacts.mode_used;
  result.num_assignments = artifacts.assignments.size();
  if (artifacts.assignments.size() == 0) return result;

  try {
    TraceSpan span("accumulate", "phase");
    span.arg("crossing", static_cast<std::uint64_t>(probs.crossing.size()));
    const MaskDistribution dist_s =
        bucket_side_array(artifacts.side_s, artifacts.array_s, probs.side_s);
    const MaskDistribution dist_t =
        bucket_side_array(artifacts.side_t, artifacts.array_t, probs.side_t);
    const Mask bottleneck_total = Mask{1}
                                  << static_cast<int>(probs.crossing.size());

    // Sides that never realize a common assignment give R = 0 exactly,
    // which the zeta accumulation's complement form reaches only up to
    // rounding, of either sign. With every bottleneck link alive the
    // supported set is largest, so one check covers every term.
    Mask sink_union = 0;
    for (const auto& bucket : dist_t.buckets) sink_union |= bucket.first;
    const Mask common =
        sink_union & artifacts.assignments.supported_by(bottleneck_total - 1);
    const bool meets = std::any_of(
        dist_s.buckets.begin(), dist_s.buckets.end(),
        [common](const auto& bucket) { return (bucket.first & common) != 0; });
    if (!meets) return result;

    // Accumulation over bottleneck-link configurations (Equations 2-3).
    const ConfigProbTable bottleneck_probs(probs.crossing);
    KahanSum total;
    for (Mask alive = 0; alive < bottleneck_total; ++alive) {
      // Each term costs an inclusion-exclusion pass, so poll every
      // iteration rather than every kPollStride.
      if (ctx) ctx->check();
      const Mask allowed = artifacts.assignments.supported_by(alive);
      if (allowed == 0) continue;
      const double r_alive =
          joint_success_probability(dist_s, dist_t, allowed, accumulation);
      total.add(bottleneck_probs.prob(alive) * r_alive);
    }
    result.reliability = total.value();
  } catch (const ExecInterrupted& stop) {
    // Partial decomposition work cannot be turned into a bound here;
    // callers degrade to reliability_bounds on a non-exact status.
    result.status = stop.status;
    result.reliability = 0.0;
  }
  return result;
}

BottleneckResult reliability_bottleneck(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options,
    const ExecContext* ctx, std::shared_ptr<const CompiledNetwork> snapshot) {
  BottleneckArtifacts artifacts =
      build_bottleneck_artifacts(net, demand, partition, options, ctx,
                                 nullptr, std::move(snapshot));
  BottleneckResult result;
  if (artifacts.usable()) {
    result = accumulate_bottleneck(
        artifacts,
        gather_bottleneck_probabilities(net.failure_probs(), partition,
                                        artifacts),
        options.accumulation, ctx);
  } else {
    result.partition_stats = artifacts.partition_stats;
    result.mode_used = artifacts.mode_used;
    result.num_assignments = artifacts.assignments.size();
    result.status = artifacts.status;
  }
  // The accumulation counts nothing: the answer's counters are the
  // build's.
  result.telemetry = std::move(artifacts.telemetry);
  return result;
}

ThroughputDistribution throughput_bottleneck(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options) {
  net.check_demand(demand);
  const std::shared_ptr<const CompiledNetwork> snapshot = net.compile();
  ThroughputDistribution dist;
  dist.at_least.reserve(static_cast<std::size_t>(demand.rate));
  for (Capacity v = 1; v <= demand.rate; ++v) {
    dist.at_least.push_back(
        reliability_bottleneck(net, FlowDemand{demand.source, demand.sink, v},
                               partition, options, nullptr, snapshot)
            .reliability);
  }
  return dist;
}

double reliability_bridge_formula(const FlowNetwork& net,
                                  const FlowDemand& demand, EdgeId bridge) {
  net.check_demand(demand);
  if (!net.valid_edge(bridge)) throw std::invalid_argument("bad bridge id");
  const Edge& e = net.edge(bridge);
  if (e.capacity < demand.rate) return 0.0;  // paper: trivially zero

  auto partition =
      partition_from_cut_edges(net, demand.source, demand.sink, {bridge});
  if (!partition || partition->k() != 1) {
    throw std::invalid_argument("edge is not a bridge separating s and t");
  }

  // Orient the bridge endpoints: x on the source side, y on the sink side.
  const NodeId x =
      partition->side_s[static_cast<std::size_t>(e.u)] ? e.u : e.v;
  const NodeId y = e.other(x);

  // Each side's factor is the probability mass of the side
  // configurations that realize the one assignment routing d over the
  // bridge.
  const std::shared_ptr<const CompiledNetwork> snapshot = net.compile();
  const AssignmentSet over_bridge{{Assignment{{demand.rate}}}};
  auto side_reliability = [&](bool source_side, NodeId anchor,
                              NodeId endpoint) {
    if (anchor == endpoint) return 1.0;  // the demand endpoint IS the
                                         // bridge endpoint: nothing to route
    const SideProblem side =
        make_side_problem(snapshot, demand, *partition, source_side);
    const MaskDistribution dist = bucket_side_array(
        side, build_side_array(side, over_bridge, demand.rate));
    double realized = 0.0;
    for (const auto& [mask, p] : dist.buckets) {
      if (mask != 0) realized += p;
    }
    return realized;
  };
  const double r_s = side_reliability(true, demand.source, x);
  const double r_t = side_reliability(false, demand.sink, y);
  return r_s * (1.0 - e.failure_prob) * r_t;  // Equation (1)
}

}  // namespace streamrel
