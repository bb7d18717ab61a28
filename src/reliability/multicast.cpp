#include "streamrel/reliability/multicast.hpp"

#include <stdexcept>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {

namespace {

void check_multicast(const FlowNetwork& net, const MulticastDemand& demand) {
  if (demand.subscribers.empty()) {
    throw std::invalid_argument("multicast needs >= 1 subscriber");
  }
  for (NodeId t : demand.subscribers) {
    net.check_demand(FlowDemand{demand.source, t, demand.rate});
  }
}

// One configuration: can every subscriber receive the stream?
bool all_subscribers_served(ConfigResidual& residual, DinicSolver& solver,
                            const MulticastDemand& demand, Mask alive,
                            std::uint64_t& calls) {
  for (NodeId t : demand.subscribers) {
    residual.reset(alive);
    ++calls;
    if (solver.solve(residual.graph(), demand.source, t, demand.rate) <
        demand.rate) {
      return false;
    }
  }
  return true;
}

bool all_subscribers_served_sampled(ConfigResidual& residual,
                                    DinicSolver& solver,
                                    const MulticastDemand& demand,
                                    const std::vector<bool>& alive) {
  for (NodeId t : demand.subscribers) {
    residual.reset_with(alive);
    if (solver.solve(residual.graph(), demand.source, t, demand.rate) <
        demand.rate) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReliabilityResult multicast_reliability(const FlowNetwork& net,
                                        const MulticastDemand& demand) {
  check_multicast(net, demand);
  if (!net.fits_mask()) {
    throw std::invalid_argument(
        "exact multicast reliability requires <= 63 links");
  }
  const ConfigProbTable probs(net.failure_probs());
  ConfigResidual residual(net);
  DinicSolver solver;

  ReliabilityResult result;
  KahanSum sum;
  std::uint64_t maxflow_calls = 0;
  const Mask total = Mask{1} << net.num_edges();
  for (Mask alive = 0; alive < total; ++alive) {
    if (all_subscribers_served(residual, solver, demand, alive,
                               maxflow_calls)) {
      sum.add(probs.prob(alive));
    }
  }
  result.reliability = sum.value();
  result.telemetry.counter(telemetry_keys::kConfigurations) = total;
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) = maxflow_calls;
  return result;
}

ReliabilityResult quorum_reliability(const FlowNetwork& net,
                                     const MulticastDemand& demand,
                                     int quorum) {
  check_multicast(net, demand);
  if (quorum < 1 ||
      quorum > static_cast<int>(demand.subscribers.size())) {
    throw std::invalid_argument("quorum must be in [1, #subscribers]");
  }
  if (!net.fits_mask()) {
    throw std::invalid_argument("quorum reliability requires <= 63 links");
  }
  const ConfigProbTable probs(net.failure_probs());
  ConfigResidual residual(net);
  DinicSolver solver;

  ReliabilityResult result;
  KahanSum sum;
  std::uint64_t maxflow_calls = 0;
  const Mask total = Mask{1} << net.num_edges();
  const int needed = quorum;
  const int subscribers = static_cast<int>(demand.subscribers.size());
  for (Mask alive = 0; alive < total; ++alive) {
    int served = 0;
    for (int i = 0; i < subscribers; ++i) {
      // Early exit both ways: quorum reached, or unreachable.
      if (served >= needed || served + (subscribers - i) < needed) break;
      residual.reset(alive);
      ++maxflow_calls;
      if (solver.solve(residual.graph(), demand.source,
                       demand.subscribers[static_cast<std::size_t>(i)],
                       demand.rate) >= demand.rate) {
        ++served;
      }
    }
    if (served >= needed) sum.add(probs.prob(alive));
  }
  result.reliability = sum.value();
  result.telemetry.counter(telemetry_keys::kConfigurations) = total;
  result.telemetry.counter(telemetry_keys::kMaxflowCalls) = maxflow_calls;
  return result;
}

MonteCarloResult multicast_reliability_monte_carlo(
    const FlowNetwork& net, const MulticastDemand& demand,
    const MonteCarloOptions& options) {
  check_multicast(net, demand);
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
    if (all_subscribers_served_sampled(residual, solver, demand, alive)) {
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
