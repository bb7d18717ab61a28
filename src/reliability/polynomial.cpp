#include "streamrel/reliability/polynomial.hpp"

#include <cmath>
#include <stdexcept>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {

ReliabilityPolynomial::ReliabilityPolynomial(
    int num_edges, std::vector<std::uint64_t> admitting_by_failures)
    : num_edges_(num_edges), counts_(std::move(admitting_by_failures)) {
  if (counts_.size() != static_cast<std::size_t>(num_edges) + 1) {
    throw std::invalid_argument("need one count per failure cardinality");
  }
}

double ReliabilityPolynomial::evaluate(double p) const {
  if (!(p >= 0.0 && p < 1.0)) {
    throw std::invalid_argument("p must lie in [0, 1)");
  }
  KahanSum sum;
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    if (counts_[j] == 0) continue;
    const double term =
        static_cast<double>(counts_[j]) *
        std::pow(p, static_cast<double>(j)) *
        std::pow(1.0 - p,
                 static_cast<double>(num_edges_) - static_cast<double>(j));
    sum.add(term);
  }
  return sum.value();
}

ReliabilityPolynomial reliability_polynomial(const FlowNetwork& net,
                                             const FlowDemand& demand) {
  net.check_demand(demand);
  if (!net.fits_mask()) {
    throw std::invalid_argument(
        "reliability polynomial requires <= 63 edges");
  }
  std::vector<std::uint64_t> counts(
      static_cast<std::size_t>(net.num_edges()) + 1, 0);
  ConfigResidual residual(net);
  DinicSolver solver;
  const Mask total = Mask{1} << net.num_edges();
  for (Mask alive = 0; alive < total; ++alive) {
    residual.reset(alive);
    if (solver.solve(residual.graph(), demand.source, demand.sink,
                     demand.rate) >= demand.rate) {
      counts[static_cast<std::size_t>(net.num_edges() - popcount(alive))]++;
    }
  }
  return ReliabilityPolynomial(net.num_edges(), std::move(counts));
}

}  // namespace streamrel
