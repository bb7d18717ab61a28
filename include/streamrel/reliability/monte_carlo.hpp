#pragma once
// Monte Carlo reliability estimation: sample failure configurations from
// the product distribution and count the admitting fraction. The only
// method here that scales past exponential exact algorithms; ships with
// normal and Wilson confidence intervals so the benches can report
// estimate quality against the exact oracles.

#include <cstdint>

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {

struct MonteCarloOptions {
  std::uint64_t samples = 100'000;
  std::uint64_t seed = 0x5eed;
};

struct MonteCarloResult {
  double estimate = 0.0;
  std::uint64_t successes = 0;
  std::uint64_t samples = 0;
  double ci95_halfwidth = 0.0;  ///< normal approximation
  Interval wilson95;
};

/// Unbiased reliability estimate; works on networks of any size.
MonteCarloResult reliability_monte_carlo(const FlowNetwork& net,
                                         const FlowDemand& demand,
                                         const MonteCarloOptions& options = {});

}  // namespace streamrel
