#pragma once
// BatchEvaluator — evaluates a vector of what-if queries against one
// QuerySession in two phases:
//
//   1. PREPARE (serial): each query runs the structural phase through the
//      session caches — partition candidates, assignment sets, side-array
//      mask tables. Later queries hit what earlier ones built, so a batch
//      of probability-only what-ifs pays the exponential cost once.
//   2. ACCUMULATE (parallel): the prepared queries are probability-only
//      side folds over pinned artifacts — independent, read-only
//      work scheduled across the ExecContext thread policy. Entries stay
//      alive through shared_ptr pins even if the serving LRU evicts them
//      mid-batch.
//
// Queries that cannot be served from the caches (non-bottleneck methods,
// reduction-eligible shapes) fall back to the facade serially; their
// answers are still bitwise-identical to standalone compute_reliability
// calls.
//
// Error contract: invalid queries (bad demand, out-of-range override,
// explicit kBottleneck on a partition-free network) throw
// std::invalid_argument from the serial phases; deadline, budget and
// cancellation stops NEVER throw — they surface as per-query
// SolveStatus values with bounds attached, like the facade.

#include <span>
#include <vector>

#include "streamrel/core/query_session.hpp"

namespace streamrel {

/// One what-if query: a demand plus per-query probability overrides.
/// The session network itself is never modified.
struct WhatIfQuery {
  FlowDemand demand;
  /// Failure-probability substitutions visible to this query only.
  std::vector<ProbOverride> prob_overrides;
  /// Engine hint; kAuto resolves exactly like the facade.
  Method method = Method::kAuto;
  /// Per-query wall-clock budget in ms (0 = none); the effective deadline
  /// is the earlier of this and the whole-batch deadline.
  double deadline_ms = 0.0;
};

struct BatchOptions {
  /// Solve options shared by every query (method is taken from the query;
  /// context/deadline_ms/max_threads are ignored — see below).
  SolveOptions base{};
  /// Wall-clock budget for the whole batch in ms (0 = none). On expiry
  /// the remaining queries return kDeadlineExpired with bounds.
  double deadline_ms = 0.0;
  /// Thread cap for the accumulation phase (0 = library default; 1 runs
  /// the batch fully serially, with bitwise-identical results).
  int max_threads = 0;
  /// Optional progress/ETA sink, shared by every query's ExecContext (see
  /// ExecContext::progress). Null costs nothing.
  std::shared_ptr<ProgressReporter> progress;
};

struct BatchReport {
  /// One report per query, in query order.
  std::vector<SolveReport> reports;
  /// Batch counters (queries, fallback_solves) at the root plus every
  /// query's solve telemetry merged in query order, so a structure built
  /// for the batch is counted once, by the query that built it —
  /// deterministic across thread counts given the query sequence.
  Telemetry telemetry;
  /// Number of reports with status kExact.
  int exact_count = 0;
};

class BatchEvaluator {
 public:
  /// The session must outlive the evaluator. Evaluation mutates the
  /// session caches; one batch runs at a time.
  explicit BatchEvaluator(QuerySession& session) : session_(&session) {}

  BatchReport evaluate(std::span<const WhatIfQuery> queries,
                       const BatchOptions& options = {});

 private:
  struct Slot;  ///< per-query state threaded between the phases

  QuerySession* session_;
};

}  // namespace streamrel
