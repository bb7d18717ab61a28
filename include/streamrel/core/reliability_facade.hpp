#pragma once
// One-call public API: picks a bottleneck partition automatically and
// falls back to the exact baselines when the graph has no exploitable
// bottleneck. Dispatch goes through the EngineRegistry (core/engine.hpp);
// every engine runs on an ExecContext, so a deadline or cancellation
// degrades the answer to a SolveStatus + reliability bounds instead of
// hanging or throwing.

#include <optional>
#include <string_view>

#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/hybrid_mc.hpp"
#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/reliability/bounds.hpp"
#include "streamrel/reliability/factoring.hpp"
#include "streamrel/reliability/frontier.hpp"
#include "streamrel/reliability/naive.hpp"
#include "streamrel/util/exec_context.hpp"

namespace streamrel {

enum class Method {
  kAuto,        ///< bottleneck > frontier (rate-1) > naive > factoring
  kBottleneck,  ///< bottleneck decomposition (throws if no partition found)
  kNaive,
  kFactoring,
  kFrontier,   ///< frontier connectivity DP (rate-1, undirected only)
  kHybridMc,   ///< bottleneck/Monte-Carlo estimator (never auto-picked:
               ///< the estimate is unbiased but not exact)
};

std::string_view to_string(Method method) noexcept;

struct SolveOptions {
  Method method = Method::kAuto;
  /// kAuto preprocessing: apply series/parallel/prune reductions first
  /// for rate-1 undirected demands (exact; often collapses sparse
  /// overlays outright).
  bool use_reductions = true;
  /// Wall-clock budget in milliseconds (0 = none). On expiry the solve
  /// returns status kDeadlineExpired with reliability bounds attached.
  /// Ignored when `context` is set.
  double deadline_ms = 0.0;
  /// Cap on OpenMP threads (0 = library default). Telemetry counters do
  /// not depend on this value. Ignored when `context` is set.
  int max_threads = 0;
  /// Caller-owned execution context (non-owning, may be null): share one
  /// deadline or cancellation token across several solves; each solve's
  /// telemetry is merged into context->telemetry on return. When set it
  /// REPLACES deadline_ms / max_threads above.
  ExecContext* context = nullptr;
  PartitionSearchOptions partition_search{};
  BottleneckOptions bottleneck{};
  NaiveOptions naive{};
  FactoringOptions factoring{};
  FrontierOptions frontier{};
  HybridMonteCarloOptions hybrid{};
  BoundsOptions bounds{};
};

struct SolveReport {
  ReliabilityResult result;
  Method method_used = Method::kAuto;
  /// Name of the engine that produced the result ("reductions" when the
  /// rate-1 preprocessing solved the instance outright).
  std::string_view engine;
  /// The partition the decomposition ran on, when it did.
  std::optional<PartitionChoice> partition;
  /// Links removed by the rate-1 reduction preprocessing (0 = none ran).
  int links_reduced = 0;
  /// Cheap two-sided envelope, attached whenever result.status is not
  /// kExact: the best available answer after a deadline/budget stop.
  /// result.reliability then holds the engine's partial accumulation (a
  /// lower bound for the sweep engines, 0 for the decomposition).
  std::optional<ReliabilityBounds> bounds;

  bool exact() const noexcept { return result.status == SolveStatus::kExact; }
};

/// THE public solve entry point. Reliability of `net` with respect to
/// `demand` — exact unless a deadline/budget stop (status in the report)
/// or Method::kHybridMc. Runs on options.context when set; otherwise
/// builds an ExecContext from options.deadline_ms / options.max_threads.
///
/// Error contract: usage errors (bad demand, no engine for the method,
/// unmet structural preconditions of an explicitly requested method)
/// throw std::invalid_argument BEFORE any solving work; deadline, budget
/// and cancellation stops NEVER throw — they come back as
/// report.result.status != kExact with reliability bounds attached.
SolveReport compute_reliability(const FlowNetwork& net,
                                const FlowDemand& demand,
                                const SolveOptions& options = {});

}  // namespace streamrel
