#pragma once
// The paper's algorithm, end to end (Fig. 6):
//
//   1. enumerate the assignment set D over the bottleneck links (§III-B);
//   2. build the two side arrays and fold them into mask distributions
//      (§III-C);
//   3. for every configuration E'' of alive bottleneck links, restrict D
//      to the assignments E'' supports (Definition 1), compute r_{E''}
//      by inclusion–exclusion (§IV), and combine: R = sum p_{E''} r_{E''}
//      (Equations 2–3).
//
// Runtime O(2^{alpha |E|} |V||E|) for constant d and k, versus the naive
// O(2^{|E|} |V||E|).

#include "streamrel/core/accumulate.hpp"
#include "streamrel/core/assignments.hpp"
#include "streamrel/core/side_array.hpp"
#include "streamrel/cuts/bottleneck.hpp"
#include "streamrel/reliability/throughput.hpp"
#include "streamrel/reliability/types.hpp"

namespace streamrel {

struct BottleneckOptions {
  AssignmentOptions assignments{};
  AccumulationStrategy accumulation = AccumulationStrategy::kAuto;
};

struct BottleneckResult {
  double reliability = 0.0;
  SolveStatus status = SolveStatus::kExact;
  /// Work counters: totals at the root, per-side breakdowns under the
  /// "side_s" / "side_t" children. Deterministic across thread counts.
  Telemetry telemetry;
  int num_assignments = 0;  ///< |D|
  AssignmentMode mode_used = AssignmentMode::kForwardOnly;
  PartitionStats partition_stats;

  bool exact() const noexcept { return status == SolveStatus::kExact; }

  /// Side configurations enumerated.
  std::uint64_t configurations() const {
    return telemetry.counter_or(telemetry_keys::kConfigurations);
  }
  std::uint64_t maxflow_calls() const {
    return telemetry.counter_or(telemetry_keys::kMaxflowCalls);
  }

  operator ReliabilityResult() const {
    ReliabilityResult r;
    r.reliability = reliability;
    r.status = status;
    r.telemetry = telemetry;
    return r;
  }
};

/// Exact reliability via the bottleneck decomposition over `partition`.
/// Requires both sides to have <= 63 internal links and |D| <= 63; a
/// partition violating the 63-link ceiling on either side or the crossing
/// set yields status kMaskOverflow (never a shift past the mask width).
/// A context stop (deadline/cancel) observed inside the side sweeps or
/// the accumulation loop yields status != kExact with reliability 0.
/// `snapshot` (optional) supplies a pre-compiled view of `net` so
/// repeated calls share one frozen structure; it must match `net`'s
/// topology and capacities (probabilities are read from `net` itself).
BottleneckResult reliability_bottleneck(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options = {},
    const ExecContext* ctx = nullptr,
    std::shared_ptr<const CompiledNetwork> snapshot = nullptr);

/// The probability-independent half of the decomposition: the assignment
/// set, the two side problems, and the side mask arrays. Masks record
/// which assignments each failure configuration realizes — a property of
/// topology and capacities only (§III-C); link probabilities enter solely
/// in the accumulation below. QuerySession caches these across queries.
struct BottleneckArtifacts {
  AssignmentSet assignments;
  AssignmentMode mode_used = AssignmentMode::kForwardOnly;
  SideProblem side_s;
  SideProblem side_t;
  /// The side arrays in their resting form (palette-indexed, in
  /// configuration order) — what the fold consumes with unit stride.
  /// config_form() materializes the paper's array[config] view.
  SlabMaskTable array_s;
  SlabMaskTable array_t;
  /// Construction-cost counters, laid out exactly as BottleneckResult
  /// reports them (root totals, "side_s"/"side_t" children).
  Telemetry telemetry;
  PartitionStats partition_stats;
  /// Non-exact when a context stop interrupted the side sweeps
  /// (kDeadlineExpired / kCancelled) or the partition needs more than
  /// kMaxMaskBits links in one failure mask (kMaskOverflow); the arrays
  /// are then unusable and must not be cached.
  SolveStatus status = SolveStatus::kExact;

  bool usable() const noexcept { return status == SolveStatus::kExact; }
};

/// One salvaged side of a previously built decomposition: the side
/// problem, its mask table in slab form, and its construction-counter
/// subtree. Passing one to build_bottleneck_artifacts skips that side's
/// exponential sweep entirely and adopts the cached table verbatim —
/// valid ONLY when the side's topology and internal capacities are
/// unchanged and the assignment set is the same (side arrays depend on
/// nothing else; see §III-C). QuerySession proves this via its
/// edge→(cut, side) index before offering a salvage.
struct SideReuse {
  SideProblem side;
  SlabMaskTable array;
  Telemetry telemetry;  ///< the side's "side_s"/"side_t" counter subtree
};

/// Builds the artifacts (the exponential part of the algorithm). Throws
/// std::invalid_argument for usage errors exactly like
/// reliability_bottleneck; a context stop returns status != kExact, and a
/// partition whose side or crossing link count exceeds kMaxMaskBits
/// returns status kMaskOverflow before any enumeration starts.
/// `reuse_assignments` (may be null) skips the enumeration with a cached
/// set — it must come from the same (partition, d, options.assignments).
/// `snapshot` (may be null) pins a pre-compiled view of `net`; when null
/// the network is compiled on the spot. `reuse_s` / `reuse_t` (may be
/// null) adopt a salvaged side instead of re-sweeping it; the build MOVES
/// from the reuse objects, leaving them empty. Because side arrays are
/// deterministic in their inputs, the result is bitwise-identical to a
/// build without reuse.
BottleneckArtifacts build_bottleneck_artifacts(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options = {},
    const ExecContext* ctx = nullptr,
    const AssignmentSet* reuse_assignments = nullptr,
    std::shared_ptr<const CompiledNetwork> snapshot = nullptr,
    SideReuse* reuse_s = nullptr, SideReuse* reuse_t = nullptr);

/// Per-link failure probabilities arranged the way the accumulation
/// consumes them: by side-subgraph edge id and by crossing-edge position.
struct BottleneckProbabilities {
  std::vector<double> side_s;    ///< indexed by artifacts.side_s.view edge ids
  std::vector<double> side_t;    ///< indexed by artifacts.side_t.view edge ids
  std::vector<double> crossing;  ///< indexed by crossing-edge position
};

/// Reads the current probabilities of `net` through the artifact edge
/// maps. What-if callers perturb the returned vectors before
/// accumulating; the network itself stays untouched.
BottleneckProbabilities gather_bottleneck_probabilities(
    const FlowNetwork& net, const BottleneckPartition& partition,
    const BottleneckArtifacts& artifacts);

/// The probability-only tail (Equations 2-3): folds the cached mask
/// arrays into per-side distributions under `probs` and accumulates over
/// the alive-bottleneck configurations. Identical arithmetic to the
/// matching reliability_bottleneck call, so results are bitwise equal.
/// Requires artifacts.usable().
BottleneckResult accumulate_bottleneck(const BottleneckArtifacts& artifacts,
                                       const BottleneckProbabilities& probs,
                                       AccumulationStrategy accumulation =
                                           AccumulationStrategy::kAuto,
                                       const ExecContext* ctx = nullptr);

/// Deliverable-throughput distribution via the decomposition: one
/// bottleneck run per level v = 1..demand.rate (P(>= v) is the
/// reliability of demand v). Same requirements as reliability_bottleneck
/// at every level; levels whose assignment sets would explode propagate
/// the exception.
ThroughputDistribution throughput_bottleneck(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition,
    const BottleneckOptions& options = {});

/// The paper's Equation (1) for a single bridge link e*: the reliability
/// of a bridged graph is r(G_s) * (1 - p(e*)) * r(G_t). Each side
/// reliability, for the demands (s, x, d) and (y, t, d), is the realized
/// mass of that side's array over the one assignment that routes d over
/// e*. Provided for the Fig.-2 reproduction and as a cross-check of the
/// k = 1 accumulation (Equations 2-3).
double reliability_bridge_formula(const FlowNetwork& net,
                                  const FlowDemand& demand, EdgeId bridge);

}  // namespace streamrel
