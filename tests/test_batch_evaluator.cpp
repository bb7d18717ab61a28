#include "streamrel/core/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "streamrel/graph/generators.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

GeneratedNetwork test_instance(std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  return clustered_bottleneck(rng, params);
}

TEST(BatchEvaluator, MatchesIndependentFacadeSolvesBitwise) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  Xoshiro256 rng(99);
  std::vector<WhatIfQuery> queries(16);
  for (WhatIfQuery& q : queries) {
    q.demand = demand;
    q.prob_overrides.push_back(ProbOverride{
        static_cast<EdgeId>(
            rng.uniform_below(static_cast<std::uint64_t>(g.net.num_edges()))),
        rng.uniform_real(0.01, 0.4)});
  }

  QuerySession session(g.net);
  BatchEvaluator evaluator(session);
  const BatchReport batch = evaluator.evaluate(queries);

  ASSERT_EQ(batch.reports.size(), queries.size());
  EXPECT_EQ(batch.exact_count, static_cast<int>(queries.size()));
  EXPECT_GT(session.cache_hits(), 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    FlowNetwork edited = g.net;
    for (const ProbOverride& o : queries[i].prob_overrides) {
      edited.set_failure_prob(o.edge, o.failure_prob);
    }
    const SolveReport facade = compute_reliability(edited, demand);
    EXPECT_EQ(batch.reports[i].result.reliability, facade.result.reliability)
        << "query " << i;
  }
}

TEST(BatchEvaluator, SerialAndParallelAccumulationAgreeBitwise) {
  const GeneratedNetwork g = test_instance();
  std::vector<WhatIfQuery> queries(8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].demand = {g.source, g.sink, 2};
    queries[i].prob_overrides.push_back(
        ProbOverride{static_cast<EdgeId>(i % 4), 0.1 + 0.05 * static_cast<double>(i)});
  }

  QuerySession parallel_session(g.net);
  BatchOptions parallel_opts;
  parallel_opts.max_threads = 0;
  const BatchReport parallel_batch =
      BatchEvaluator(parallel_session).evaluate(queries, parallel_opts);

  QuerySession serial_session(g.net);
  BatchOptions serial_opts;
  serial_opts.max_threads = 1;
  const BatchReport serial_batch =
      BatchEvaluator(serial_session).evaluate(queries, serial_opts);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(parallel_batch.reports[i].result.reliability,
              serial_batch.reports[i].result.reliability);
  }
  // Counters are deterministic across thread policies.
  EXPECT_TRUE(parallel_batch.telemetry.counters_equal(serial_batch.telemetry));
}

// Sixteen what-ifs over one cold key build its structure once: the batch
// counts that one build's max-flow work, not one copy per answer, under
// either thread policy.
TEST(BatchEvaluator, OneColdKeyCountsOneBuild) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  std::vector<WhatIfQuery> queries(16);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].demand = demand;
    queries[i].prob_overrides.push_back(ProbOverride{
        static_cast<EdgeId>(i % 4), 0.02 * static_cast<double>(i + 1)});
  }
  const std::uint64_t one_build =
      compute_reliability(g.net, demand).result.maxflow_calls();
  ASSERT_GT(one_build, 0u);

  for (const int threads : {1, 0}) {
    QuerySession session(g.net);
    BatchOptions options;
    options.max_threads = threads;
    const BatchReport batch = BatchEvaluator(session).evaluate(queries, options);
    EXPECT_EQ(batch.exact_count, static_cast<int>(queries.size()));
    EXPECT_EQ(batch.telemetry.counter_or(telemetry_keys::kMaxflowCalls),
              one_build)
        << "max_threads " << threads;
    // Only the first query ran the build; the others were cache hits.
    EXPECT_EQ(batch.reports[0].result.maxflow_calls(), one_build);
    for (std::size_t i = 1; i < batch.reports.size(); ++i) {
      EXPECT_EQ(batch.reports[i].result.maxflow_calls(), 0u) << "query " << i;
    }
  }
}

TEST(BatchEvaluator, ExpiredBatchDeadlineDegradesWithoutThrowing) {
  const GeneratedNetwork g = test_instance();
  std::vector<WhatIfQuery> queries(4);
  for (WhatIfQuery& q : queries) q.demand = {g.source, g.sink, 2};

  QuerySession session(g.net);
  BatchOptions options;
  options.deadline_ms = 0.0001;  // expires before any work
  BatchReport batch;
  EXPECT_NO_THROW(batch = BatchEvaluator(session).evaluate(queries, options));
  ASSERT_EQ(batch.reports.size(), queries.size());
  for (const SolveReport& report : batch.reports) {
    EXPECT_NE(report.result.status, SolveStatus::kExact);
    ASSERT_TRUE(report.bounds.has_value());
    EXPECT_LE(report.bounds->lower, report.bounds->upper);
  }
  EXPECT_EQ(batch.exact_count, 0);
}

// A per-query budget of a year or more is no deadline. It used to
// overflow the deadline's time point into the past, so the query came
// back deadline_expired at once.
TEST(BatchEvaluator, HugePerQueryDeadlineStillSolvesExactly) {
  const GeneratedNetwork g = test_instance();
  std::vector<WhatIfQuery> queries(2);
  for (WhatIfQuery& q : queries) {
    q.demand = {g.source, g.sink, 2};
    q.method = Method::kNaive;
  }
  queries[0].deadline_ms = 1e13;
  queries[1].deadline_ms = 1e300;

  QuerySession session(g.net);
  const BatchReport batch = BatchEvaluator(session).evaluate(queries);
  ASSERT_EQ(batch.reports.size(), queries.size());
  for (const SolveReport& report : batch.reports) {
    EXPECT_EQ(report.result.status, SolveStatus::kExact);
    EXPECT_GT(report.result.reliability, 0.0);
  }
  EXPECT_EQ(batch.exact_count, 2);
}

TEST(BatchEvaluator, MixedMethodsFallBackPerQuery) {
  const GeneratedNetwork g = test_instance();
  std::vector<WhatIfQuery> queries(2);
  queries[0].demand = {g.source, g.sink, 2};
  queries[0].method = Method::kAuto;
  queries[1].demand = {g.source, g.sink, 2};
  queries[1].method = Method::kNaive;  // not cache-served

  QuerySession session(g.net);
  const BatchReport batch = BatchEvaluator(session).evaluate(queries);
  EXPECT_EQ(batch.telemetry.counter_or(telemetry_keys::kFallbackSolves), 1u);
  // Both roads lead to the same exact number.
  EXPECT_DOUBLE_EQ(batch.reports[0].result.reliability,
                   batch.reports[1].result.reliability);
  EXPECT_EQ(batch.reports[1].method_used, Method::kNaive);
}

TEST(BatchEvaluator, InvalidQueryThrowsBeforeResults) {
  const GeneratedNetwork g = test_instance();
  std::vector<WhatIfQuery> queries(1);
  queries[0].demand = {g.source, g.sink, 1};
  queries[0].prob_overrides.push_back(ProbOverride{g.net.num_edges(), 0.5});

  QuerySession session(g.net);
  BatchEvaluator evaluator(session);
  EXPECT_THROW(evaluator.evaluate(queries), std::invalid_argument);
}

TEST(BatchEvaluator, EvictionDuringBatchKeepsPinnedEntriesAlive) {
  const GeneratedNetwork g = test_instance();

  // Bound 1 with two interleaved demands: every prepare evicts the other
  // demand's table, yet the pinned shared_ptrs must keep in-flight
  // accumulations valid.
  QueryCacheOptions cache;
  cache.max_mask_tables = 1;
  QuerySession session(g.net, cache);

  std::vector<WhatIfQuery> queries(8);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Rates 2 and 3: rate-1 undirected queries are reduction-eligible and
    // would bypass the caches entirely.
    queries[i].demand = {g.source, g.sink, static_cast<Capacity>(2 + i % 2)};
  }
  const BatchReport batch = BatchEvaluator(session).evaluate(queries);
  EXPECT_GE(session.cache_evictions(), 1u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch.reports[i].result.reliability,
              compute_reliability(g.net, queries[i].demand).result.reliability);
  }
}

}  // namespace
}  // namespace streamrel
