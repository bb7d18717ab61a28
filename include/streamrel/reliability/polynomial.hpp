#pragma once
// Reliability polynomial for networks whose links share one failure
// probability p: counting, per failure count j, the configurations that
// admit the demand yields
//
//   R(p) = sum_j  N_j * p^j * (1-p)^(|E|-j)
//
// so one exhaustive pass answers every p — the p-sweep benches and churn
// studies evaluate the polynomial instead of re-enumerating.

#include <cstdint>
#include <vector>

#include "streamrel/graph/flow_network.hpp"

namespace streamrel {

class ReliabilityPolynomial {
 public:
  ReliabilityPolynomial(int num_edges,
                        std::vector<std::uint64_t> admitting_by_failures);

  /// N_j: number of admitting configurations with exactly j failed links.
  const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  int num_edges() const noexcept { return num_edges_; }

  /// R(p) for a uniform link failure probability p in [0, 1).
  double evaluate(double p) const;

 private:
  int num_edges_;
  std::vector<std::uint64_t> counts_;  ///< indexed by failure count j
};

/// Builds the polynomial by exhaustive enumeration (capacities and the
/// demand matter; the per-edge failure probabilities in `net` are
/// ignored). Requires net.fits_mask().
ReliabilityPolynomial reliability_polynomial(const FlowNetwork& net,
                                             const FlowDemand& demand);

}  // namespace streamrel
