#include "streamrel/core/bottleneck_algorithm.hpp"

#include <algorithm>
#include <stdexcept>

#include "streamrel/graph/graph_algos.hpp"
#include "streamrel/graph/subgraph.hpp"
#include "streamrel/reliability/naive.hpp"
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
    // Both side problems are zero-copy views pinning one shared snapshot
    // — or, per side, an adopted salvage (which pins the snapshot it was
    // originally built against; the arrays are identical either way
    // because the salvage contract guarantees the side's inputs are
    // unchanged). A salvaged side keeps its original counters so the
    // telemetry still accounts for the sweep that actually built it.
    if (!snapshot) snapshot = net.compile();
    Telemetry side_tel_s;
    Telemetry side_tel_t;
    if (reuse_s) {
      artifacts.side_s = std::move(reuse_s->side);
      artifacts.array_s = std::move(reuse_s->array);
      side_tel_s = std::move(reuse_s->telemetry);
    } else {
      artifacts.side_s =
          make_side_problem(snapshot, demand, partition, /*source_side=*/true);
      SideArrayStats stats_s;
      TraceSpan span("side_array_s", "phase");
      artifacts.array_s =
          build_side_array_slab(artifacts.side_s, artifacts.assignments,
                                demand.rate, &stats_s, ctx);
      side_tel_s = std::move(stats_s.telemetry);
    }
    if (reuse_t) {
      artifacts.side_t = std::move(reuse_t->side);
      artifacts.array_t = std::move(reuse_t->array);
      side_tel_t = std::move(reuse_t->telemetry);
    } else {
      artifacts.side_t = make_side_problem(std::move(snapshot), demand,
                                           partition, /*source_side=*/false);
      SideArrayStats stats_t;
      TraceSpan span("side_array_t", "phase");
      artifacts.array_t =
          build_side_array_slab(artifacts.side_t, artifacts.assignments,
                                demand.rate, &stats_t, ctx);
      side_tel_t = std::move(stats_t.telemetry);
    }
    artifacts.telemetry.merge(side_tel_s);
    artifacts.telemetry.merge(side_tel_t);
    artifacts.telemetry.child("side_s").merge(side_tel_s);
    artifacts.telemetry.child("side_t").merge(side_tel_t);
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
    const FlowNetwork& net, const BottleneckPartition& partition,
    const BottleneckArtifacts& artifacts) {
  BottleneckProbabilities probs;
  const auto gather_side = [&](const SideProblem& side,
                               std::vector<double>& out) {
    // Read the LIVE network, not the side's pinned snapshot: cached views
    // stay correct across probability edits because only this gather (and
    // the crossing list below) feeds probabilities into the accumulation.
    out.reserve(side.view.edge_map().size());
    for (EdgeId original : side.view.edge_map()) {
      out.push_back(net.edge(original).failure_prob);
    }
  };
  gather_side(artifacts.side_s, probs.side_s);
  gather_side(artifacts.side_t, probs.side_t);
  probs.crossing.reserve(partition.crossing_edges.size());
  for (EdgeId id : partition.crossing_edges) {
    probs.crossing.push_back(net.edge(id).failure_prob);
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
  result.telemetry = artifacts.telemetry;
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
  const BottleneckArtifacts artifacts =
      build_bottleneck_artifacts(net, demand, partition, options, ctx,
                                 nullptr, std::move(snapshot));
  if (!artifacts.usable()) {
    BottleneckResult result;
    result.partition_stats = artifacts.partition_stats;
    result.mode_used = artifacts.mode_used;
    result.num_assignments = artifacts.assignments.size();
    result.telemetry = artifacts.telemetry;
    result.status = artifacts.status;
    return result;
  }
  return accumulate_bottleneck(
      artifacts, gather_bottleneck_probabilities(net, partition, artifacts),
      options.accumulation, ctx);
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

  const Subgraph g_s = induced_subgraph(net, partition->side_s);
  std::vector<bool> sink_side(partition->side_s);
  sink_side.flip();
  const Subgraph g_t = induced_subgraph(net, sink_side);

  auto side_reliability = [&](const Subgraph& sub, NodeId from, NodeId to) {
    const NodeId sub_from = sub.node_to_sub[static_cast<std::size_t>(from)];
    const NodeId sub_to = sub.node_to_sub[static_cast<std::size_t>(to)];
    if (sub_from == sub_to) return 1.0;  // the demand endpoint IS the
                                         // bridge endpoint: nothing to route
    return reliability_naive(sub.net,
                             FlowDemand{sub_from, sub_to, demand.rate})
        .reliability;
  };
  const double r_s = side_reliability(g_s, demand.source, x);
  const double r_t = side_reliability(g_t, y, demand.sink);
  return r_s * (1.0 - e.failure_prob) * r_t;  // Equation (1)
}

}  // namespace streamrel
