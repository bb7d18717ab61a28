#pragma once
// Hybrid bottleneck/Monte-Carlo estimator — a natural companion to the
// paper's algorithm for networks whose SIDES are too large for the
// 2^|E_side| sweeps: keep the bottleneck structure exact (assignments,
// supporting subsets, inclusion-exclusion over the 2^k bottleneck
// configurations) but estimate each side's realized-assignment-mask
// distribution by sampling side configurations instead of enumerating
// them.
//
// Because the two sides are sampled independently and the accumulation
// is bilinear in the two distributions, the estimator is unbiased:
// E[accumulate(D̂_s, D̂_t)] = accumulate(D_s, D_t) = R. Its variance
// decays as 1/samples, and — unlike plain network-wide Monte Carlo —
// the bottleneck links (often the reliability-critical part) contribute
// NO sampling noise at all.

#include <cstdint>

#include "streamrel/core/bottleneck_algorithm.hpp"

namespace streamrel {

struct HybridMonteCarloOptions {
  std::uint64_t samples_per_side = 20'000;
  std::uint64_t seed = 0xb0771e;
  AssignmentOptions assignments{};
  AccumulationStrategy accumulation = AccumulationStrategy::kAuto;
};

struct HybridMonteCarloResult {
  double estimate = 0.0;
  /// kExact means the full requested sample size was drawn; on a context
  /// stop the estimate still uses every sample drawn so far (it remains
  /// unbiased, just with higher variance).
  SolveStatus status = SolveStatus::kExact;
  Telemetry telemetry;
  int num_assignments = 0;
  std::uint64_t samples_per_side = 0;  ///< requested per side

  bool exact() const noexcept { return status == SolveStatus::kExact; }
  std::uint64_t maxflow_calls() const {
    return telemetry.counter_or(telemetry_keys::kMaxflowCalls);
  }
  /// Samples actually drawn, summed over both sides.
  std::uint64_t samples() const {
    return telemetry.counter_or(telemetry_keys::kSamples);
  }
};

/// Unbiased reliability estimate over `partition`. Each side may have up
/// to 63 links (mask-representable) — which covers the whole range where
/// exact side sweeps (2^|E_side|) are infeasible but the bottleneck
/// structure is still worth exploiting.
HybridMonteCarloResult reliability_bottleneck_hybrid(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition,
    const HybridMonteCarloOptions& options = {},
    const ExecContext* ctx = nullptr);

}  // namespace streamrel
