#pragma once
// Multicast (one-to-many) reliability: the probability that EVERY
// subscriber in a group can receive the stream.
//
// Semantics: a configuration succeeds when each subscriber individually
// admits d sub-streams from the source (max-flow >= d per subscriber).
// Because the stream is the same content, a link forwards it once to all
// downstream peers, so per-subscriber feasibility is the standard
// availability notion for overlay multicast; it is an upper bound on the
// stricter "simultaneous independent flows" semantics, which overlay
// systems do not need.

#include <vector>

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/reliability/monte_carlo.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

struct MulticastDemand {
  NodeId source = kInvalidNode;
  std::vector<NodeId> subscribers;
  Capacity rate = 1;
};

/// Exact: exhaustive enumeration with one bounded max-flow per
/// (configuration, subscriber), short-circuiting at the first subscriber
/// a configuration fails. Requires net.fits_mask().
ReliabilityResult multicast_reliability(const FlowNetwork& net,
                                        const MulticastDemand& demand);

/// Monte Carlo variant for larger overlays.
MonteCarloResult multicast_reliability_monte_carlo(
    const FlowNetwork& net, const MulticastDemand& demand,
    const MonteCarloOptions& options = {});

/// Quorum variant: P(at least `quorum` of the subscribers can receive
/// the stream) — the SLA question ("99% of viewers keep watching") that
/// all-or-nothing multicast reliability cannot answer. quorum = all
/// subscribers reduces to multicast_reliability; quorum = 1 is the
/// anycast probability. Requires net.fits_mask().
ReliabilityResult quorum_reliability(const FlowNetwork& net,
                                     const MulticastDemand& demand,
                                     int quorum);

}  // namespace streamrel
