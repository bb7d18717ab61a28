#pragma once
// Beyond YES/NO feasibility: the DISTRIBUTION of deliverable throughput.
// For a stream of d sub-streams, P(deliverable >= v) for each v = 1..d
// quantifies graceful degradation — the very property multiple-tree
// systems buy (paper §II) — and its sum is the expected number of
// sub-streams the subscriber receives.

#include <vector>

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

struct ThroughputDistribution {
  /// at_least[v-1] = P(max deliverable sub-streams >= v), v = 1..rate.
  /// Non-increasing in v; at_least[rate-1] is the classical reliability.
  std::vector<double> at_least;

  /// E[min(max-flow, rate)] = sum_v P(>= v).
  double expected_rate() const;

  /// P(exactly v sub-streams deliverable), v = 0..rate.
  std::vector<double> exactly() const;
};

/// Exact distribution by exhaustive enumeration (one bounded max-flow per
/// configuration, recording the achieved value). Requires net.fits_mask().
/// demand.rate is the full stream rate d.
ThroughputDistribution throughput_distribution(const FlowNetwork& net,
                                               const FlowDemand& demand);

}  // namespace streamrel
