#include "streamrel/reliability/throughput.hpp"

#include <stdexcept>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {

double ThroughputDistribution::expected_rate() const {
  KahanSum sum;
  for (double p : at_least) sum.add(p);
  return sum.value();
}

std::vector<double> ThroughputDistribution::exactly() const {
  std::vector<double> out(at_least.size() + 1, 0.0);
  // P(= v) = P(>= v) - P(>= v+1); P(= rate) = P(>= rate).
  double above = 0.0;
  for (std::size_t v = at_least.size(); v-- > 0;) {
    out[v + 1] = at_least[v] - above;
    above = at_least[v];
  }
  out[0] = 1.0 - above;
  return out;
}

ThroughputDistribution throughput_distribution(const FlowNetwork& net,
                                               const FlowDemand& demand) {
  net.check_demand(demand);
  if (!net.fits_mask()) {
    throw std::invalid_argument(
        "throughput distribution requires <= 63 links");
  }
  const ConfigProbTable probs(net.failure_probs());
  ConfigResidual residual(net);
  DinicSolver solver;

  // hist[f] accumulates the probability of configurations whose bounded
  // max-flow equals f (f capped at the stream rate).
  std::vector<KahanSum> hist(static_cast<std::size_t>(demand.rate) + 1);
  const Mask total = Mask{1} << net.num_edges();
  for (Mask alive = 0; alive < total; ++alive) {
    residual.reset(alive);
    const Capacity flow = solver.solve(residual.graph(), demand.source,
                                       demand.sink, demand.rate);
    hist[static_cast<std::size_t>(flow)].add(probs.prob(alive));
  }

  ThroughputDistribution dist;
  dist.at_least.resize(static_cast<std::size_t>(demand.rate));
  double tail = 0.0;
  for (std::size_t v = static_cast<std::size_t>(demand.rate); v >= 1; --v) {
    tail += hist[v].value();
    dist.at_least[v - 1] = tail;
  }
  return dist;
}

}  // namespace streamrel
