#include "streamrel/reliability/monte_carlo.hpp"

#include <stdexcept>
#include <vector>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {

MonteCarloResult reliability_monte_carlo(const FlowNetwork& net,
                                         const FlowDemand& demand,
                                         const MonteCarloOptions& options) {
  net.check_demand(demand);
  if (options.samples == 0) {
    throw std::invalid_argument("monte carlo needs >= 1 sample");
  }
  Xoshiro256 rng(options.seed);
  ConfigResidual residual(net);
  DinicSolver solver;
  std::vector<bool> alive(static_cast<std::size_t>(net.num_edges()));
  const std::vector<double> probs = net.failure_probs();

  MonteCarloResult result;
  result.samples = options.samples;
  for (std::uint64_t i = 0; i < options.samples; ++i) {
    for (std::size_t e = 0; e < probs.size(); ++e) {
      alive[e] = !rng.bernoulli(probs[e]);
    }
    residual.reset_with(alive);
    if (solver.solve(residual.graph(), demand.source, demand.sink,
                     demand.rate) >= demand.rate) {
      ++result.successes;
    }
  }
  result.estimate = static_cast<double>(result.successes) /
                    static_cast<double>(result.samples);
  result.ci95_halfwidth =
      proportion_ci_halfwidth(result.successes, result.samples);
  result.wilson95 = wilson_interval(result.successes, result.samples);
  return result;
}

}  // namespace streamrel
