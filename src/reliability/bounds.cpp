#include "streamrel/reliability/bounds.hpp"

#include <algorithm>
#include <stdexcept>

#include "streamrel/cuts/cut_enumeration.hpp"
#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {

namespace {

// P(surviving capacity across `cut` >= d): exact enumeration over the
// cut's own 2^|C| failure configurations.
double cut_survival_probability(const FlowNetwork& net,
                                const std::vector<EdgeId>& cut, Capacity d) {
  std::vector<double> probs;
  std::vector<Capacity> caps;
  for (EdgeId id : cut) {
    probs.push_back(net.edge(id).failure_prob);
    caps.push_back(net.edge(id).capacity);
  }
  const ConfigProbTable table(probs);
  KahanSum sum;
  for (Mask alive = 0; alive < (Mask{1} << cut.size()); ++alive) {
    Capacity surviving = 0;
    for (std::size_t i = 0; i < cut.size(); ++i) {
      if (test_bit(alive, static_cast<int>(i))) surviving += caps[i];
    }
    if (surviving >= d) sum.add(table.prob(alive));
  }
  return sum.value();
}

// Greedily extracts edge-disjoint subgraphs that each route d units;
// returns the survival probability of each routing.
std::vector<double> disjoint_routing_survivals(const FlowNetwork& net,
                                               const FlowDemand& demand,
                                               const BoundsOptions& options) {
  std::vector<double> survivals;
  std::vector<bool> available(static_cast<std::size_t>(net.num_edges()),
                              true);
  ConfigResidual residual(net);
  DinicSolver solver;
  while (static_cast<int>(survivals.size()) < options.max_routings) {
    residual.reset_with(available);
    if (solver.solve(residual.graph(), demand.source, demand.sink,
                     demand.rate) < demand.rate) {
      break;
    }
    // The routing is the support of the flow the solver just computed.
    double survive = 1.0;
    bool any = false;
    for (EdgeId id = 0; id < net.num_edges(); ++id) {
      if (!available[static_cast<std::size_t>(id)]) continue;
      if (residual.edge_net_flow(id) != 0) {
        survive *= 1.0 - net.edge(id).failure_prob;
        available[static_cast<std::size_t>(id)] = false;
        any = true;
      }
    }
    if (!any) break;  // degenerate: d routed over no edges (s == t guard)
    survivals.push_back(survive);
  }
  return survivals;
}

}  // namespace

ReliabilityBounds reliability_bounds(const FlowNetwork& net,
                                     const FlowDemand& demand,
                                     const BoundsOptions& options) {
  net.check_demand(demand);
  ReliabilityBounds bounds;

  // ---- Upper bound over a family of small cuts. ----
  // Always include the min-capacity and min-cardinality cuts; on
  // mask-sized networks add enumerated minimal cut sets.
  std::vector<std::vector<EdgeId>> cuts;
  cuts.push_back(min_cut(net, demand.source, demand.sink).edges);
  cuts.push_back(min_cardinality_cut(net, demand.source, demand.sink).edges);
  if (net.fits_mask()) {
    CutEnumerationOptions enum_opts;
    enum_opts.max_size = options.max_cut_size;
    enum_opts.max_results = options.max_cuts;
    for (auto& cut :
         enumerate_minimal_cutsets(net, demand.source, demand.sink,
                                   enum_opts)) {
      cuts.push_back(std::move(cut));
    }
  }
  for (const auto& cut : cuts) {
    if (cut.empty()) {
      // No surviving path even with everything up: reliability is zero.
      bounds.upper = 0.0;
      bounds.cuts_used++;
      continue;
    }
    if (static_cast<int>(cut.size()) > options.max_cut_size) continue;
    bounds.upper = std::min(
        bounds.upper, cut_survival_probability(net, cut, demand.rate));
    bounds.cuts_used++;
  }

  // ---- Lower bound from edge-disjoint routings. ----
  double all_fail = 1.0;
  const std::vector<double> survivals =
      disjoint_routing_survivals(net, demand, options);
  for (double s : survivals) all_fail *= 1.0 - s;
  bounds.routings_used = static_cast<int>(survivals.size());
  bounds.lower = survivals.empty() ? 0.0 : 1.0 - all_fail;
  // Guard against floating drift inverting the envelope on exact-boundary
  // instances (e.g. reliability exactly 0 or 1).
  bounds.lower = std::min(bounds.lower, bounds.upper);
  return bounds;
}

}  // namespace streamrel
