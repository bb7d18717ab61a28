#pragma once
// The naive exact algorithm (paper Fig. 1): enumerate all 2^|E| failure
// configurations, test each with a (bounded) max-flow computation, and sum
// the probabilities of the admitting ones. O(2^|E|) * maxflow — the
// baseline the bottleneck decomposition is measured against.
//
// Three execution strategies:
//   * kFromScratch     — reset + solve per configuration;
//   * kGrayIncremental — visit configurations in Gray-code order and let
//                        IncrementalMaxFlow repair one edge per step;
//   * kParallel        — OpenMP over contiguous mask ranges (from-scratch
//                        evaluation, deterministic merge).

#include "streamrel/graph/flow_network.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

enum class NaiveStrategy {
  kFromScratch,
  kGrayIncremental,
  kParallel,
};

struct NaiveOptions {
  NaiveStrategy strategy = NaiveStrategy::kFromScratch;
};

/// Exact reliability by exhaustive enumeration. Requires net.fits_mask().
/// With a context, the sweep polls for deadline/cancellation every
/// ExecContext::kPollStride configurations and honors the thread cap; on
/// a stop the result carries the stop status and `reliability` holds the
/// probability mass accumulated so far (a valid LOWER bound on R).
ReliabilityResult reliability_naive(const FlowNetwork& net,
                                    const FlowDemand& demand,
                                    const NaiveOptions& options = {},
                                    const ExecContext* ctx = nullptr);

}  // namespace streamrel
