#pragma once
// Cheap two-sided reliability bounds, in the Esary–Proschan spirit but
// capacity-aware:
//
//  * UPPER bound — for every s-t cut C, a feasible configuration must
//    keep at least d units of surviving capacity across C, so
//    R <= P(surviving capacity of C >= d). Evaluated exactly per cut
//    (the cut is small) and minimized over a family of minimal cuts.
//
//  * LOWER bound — extract edge-disjoint "delivery routings": subgraphs
//    that each alone carry d units (supports of successive max-flows on
//    the shrinking network). If any routing fully survives, the demand
//    is met; the routings are edge-disjoint, hence independent, so
//    R >= 1 - prod_i (1 - prod_{e in routing_i} (1 - p(e))).
//
// Both bounds are polynomial-time — useful as sanity envelopes around
// estimates and as quick feasibility filters before exact computation.

#include <vector>

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/maxflow/maxflow.hpp"

namespace streamrel {

struct BoundsOptions {
  int max_cut_size = 8;         ///< cuts bigger than this are skipped
  std::size_t max_cuts = 64;    ///< cap on the cut family size
  int max_routings = 16;        ///< cap on extracted disjoint routings
};

struct ReliabilityBounds {
  double lower = 0.0;
  double upper = 1.0;
  int cuts_used = 0;
  int routings_used = 0;

  bool contains(double r) const noexcept {
    return lower - 1e-12 <= r && r <= upper + 1e-12;
  }
};

ReliabilityBounds reliability_bounds(const FlowNetwork& net,
                                     const FlowDemand& demand,
                                     const BoundsOptions& options = {});

}  // namespace streamrel
