#include "streamrel/core/batch_evaluator.hpp"

#include <algorithm>
#include <chrono>

#include "streamrel/reliability/bounds.hpp"
#include "streamrel/util/trace.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace streamrel {

namespace {

double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

struct BatchEvaluator::Slot {
  QuerySession::PreparedQuery prepared;
  SolveOptions options;
  ExecContext ctx;          ///< shares the batch cancel token
  bool fallback = false;    ///< facade path (runs serially)
  double latency_ms = 0.0;  ///< this query's solve time (either phase)
};

BatchReport BatchEvaluator::evaluate(std::span<const WhatIfQuery> queries,
                                     const BatchOptions& options) {
  BatchReport batch;
  batch.reports.resize(queries.size());

  // Usage errors surface before any solving work.
  for (const WhatIfQuery& q : queries) {
    session_->validate_overrides(q.prob_overrides);
  }

  ExecContext batch_ctx;
  if (options.deadline_ms > 0.0) batch_ctx.set_deadline_ms(options.deadline_ms);
  batch_ctx.max_threads = options.max_threads;
  batch_ctx.progress = options.progress;  // slots copy the shared sink

  // Phase 1 — structural prepare, serial: cache lookups and cold builds.
  std::vector<Slot> slots(queries.size());
  {
    TraceSpan phase_span("batch_prepare", "batch");
    phase_span.arg("queries", static_cast<std::uint64_t>(queries.size()));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const WhatIfQuery& q = queries[i];
      Slot& slot = slots[i];
      slot.options = options.base;
      slot.options.method = q.method;
      slot.options.context = nullptr;
      slot.ctx = batch_ctx;  // shared cancel token, own telemetry
      if (q.deadline_ms > 0.0) {
        const double batch_left = batch_ctx.remaining_ms();
        slot.ctx.set_deadline_ms(std::min(q.deadline_ms, batch_left));
      }
      // Each prepared query pins its entry and the session snapshot, so
      // the whole batch accumulates against one frozen network even if
      // the session is edited while results are still being read.
      slot.prepared =
          session_->prepare(q.demand, slot.options, q.prob_overrides, slot.ctx);
      slot.fallback = !slot.prepared.bottleneck_path;
    }
  }

  // Phase 2 — probability-only accumulation over pinned artifacts.
  // accumulate is const and touches no session state; overrides were
  // checked above, and context stops come back as SolveStatus — nothing
  // escapes the parallel region.
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].fallback) ready.push_back(i);
  }
  const auto accumulate_one = [&](std::size_t i) {
    const WhatIfQuery& q = queries[i];
    TraceSpan span("batch_query", "batch");
    span.arg("query", static_cast<std::uint64_t>(i));
    const auto start = std::chrono::steady_clock::now();
    batch.reports[i] = session_->accumulate(
        slots[i].prepared, slots[i].options, q.prob_overrides, &slots[i].ctx);
    slots[i].latency_ms = elapsed_ms_since(start);
  };
  {
    TraceSpan phase_span("batch_accumulate", "batch");
    phase_span.arg("ready", static_cast<std::uint64_t>(ready.size()));
#ifdef _OPENMP
    const int threads = batch_ctx.resolved_threads();
    if (threads > 1 && ready.size() > 1) {
      const auto n = static_cast<std::int64_t>(ready.size());
#pragma omp parallel for num_threads(threads) schedule(dynamic)
      for (std::int64_t j = 0; j < n; ++j) {
        accumulate_one(ready[static_cast<std::size_t>(j)]);
      }
    } else {
      for (std::size_t i : ready) accumulate_one(i);
    }
#else
    for (std::size_t i : ready) accumulate_one(i);
#endif
  }

  // Phase 3 — facade fallbacks and finishes (serial: both may guard-edit
  // the session network), telemetry in query order.
  TraceSpan phase_span("batch_finalize", "batch");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const WhatIfQuery& q = queries[i];
    Slot& slot = slots[i];
    SolveReport& report = batch.reports[i];
    if (slot.fallback) {
      batch.telemetry.counter(telemetry_keys::kFallbackSolves) += 1;
      const auto start = std::chrono::steady_clock::now();
      report =
          session_->solve_fallback(q.demand, slot.options, q.prob_overrides,
                                   slot.ctx);
      slot.latency_ms = elapsed_ms_since(start);
    } else {
      session_->finish(report, q.demand, slot.options, q.prob_overrides,
                       slot.ctx);
    }
    if (report.result.status == SolveStatus::kExact) batch.exact_count += 1;
    batch.telemetry.counter(telemetry_keys::kQueries) += 1;
    if (slot.fallback) {
      batch.telemetry.merge(slot.ctx.telemetry);
    } else {
      // Phase-2 slots ran concurrently, so summing their wall-clock
      // timers would overstate the batch; merge_parallel takes the max.
      // Counters still add, keeping the determinism contract intact.
      batch.telemetry.merge_parallel(slot.ctx.telemetry);
    }
    batch.telemetry.histogram("query_latency").record_ms(slot.latency_ms);
  }
  return batch;
}

}  // namespace streamrel
