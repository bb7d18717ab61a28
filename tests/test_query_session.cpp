#include "streamrel/core/query_session.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "streamrel/graph/generators.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

/// Clustered instance with a genuine bottleneck, big enough that the
/// kAuto chain picks the decomposition but small enough for fast tests.
GeneratedNetwork test_instance(std::uint64_t seed = 5) {
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

TEST(QuerySession, WarmAnswersAreBitwiseEqualToCold) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport cold = session.solve(demand);
  EXPECT_EQ(session.cache_hits(), 0u);
  EXPECT_GT(session.cache_misses(), 0u);

  const SolveReport warm = session.solve(demand);
  EXPECT_GT(session.cache_hits(), 0u);
  // Bitwise, not approximate: the warm path reuses the cold arithmetic.
  EXPECT_EQ(warm.result.reliability, cold.result.reliability);
  EXPECT_EQ(warm.result.status, SolveStatus::kExact);
}

TEST(QuerySession, MatchesFacadeAnswerExactly) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport facade = compute_reliability(g.net, demand);
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(served.result.reliability, facade.result.reliability);
  EXPECT_EQ(served.method_used, facade.method_used);
}

TEST(QuerySession, OverridesMatchEditedNetworkSolve) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const std::vector<ProbOverride> overrides{{0, 0.33}, {3, 0.05}};

  QuerySession session(g.net);
  session.solve(demand);  // warm the caches
  const SolveReport what_if = session.solve(demand, {}, overrides);

  FlowNetwork edited = g.net;
  for (const ProbOverride& o : overrides) {
    edited.set_failure_prob(o.edge, o.failure_prob);
  }
  const SolveReport facade = compute_reliability(edited, demand);
  EXPECT_EQ(what_if.result.reliability, facade.result.reliability);

  // The what-if left the session network untouched.
  EXPECT_EQ(session.network().edge(0).failure_prob, g.net.edge(0).failure_prob);
  const SolveReport base_again = session.solve(demand);
  EXPECT_EQ(base_again.result.reliability,
            compute_reliability(g.net, demand).result.reliability);
}

TEST(QuerySession, ProbabilityEditKeepsCaches) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses_after_cold = session.cache_misses();

  session.set_failure_prob(0, 0.42);
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses_after_cold);  // no rebuild
  EXPECT_GT(session.cache_hits(), 0u);
  EXPECT_EQ(session.cache_invalidations(), 0u);

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.42);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, CapacityEditInvalidatesAndRecomputes) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses_after_cold = session.cache_misses();

  // Raising a bottleneck-link capacity changes the assignment set, so a
  // stale mask table would silently produce a wrong answer.
  EdgeId edge = 0;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    if (g.side_s[static_cast<std::size_t>(link.u)] !=
        g.side_s[static_cast<std::size_t>(link.v)]) {
      edge = e;
      break;
    }
  }
  session.set_capacity(edge, session.network().edge(edge).capacity + 1);
  EXPECT_EQ(session.cache_invalidations(), 1u);

  const SolveReport served = session.solve(demand);
  EXPECT_GT(session.cache_misses(), misses_after_cold);  // rebuilt

  FlowNetwork edited = g.net;
  edited.set_capacity(edge, edited.edge(edge).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, LruEvictsUnderTinyBound) {
  const GeneratedNetwork g = test_instance();

  QueryCacheOptions cache;
  cache.max_mask_tables = 1;
  QuerySession session(g.net, cache);

  // Two distinct demands -> two mask tables; bound 1 forces an eviction.
  // (Rates 2 and 3: rate-1 undirected queries are reduction-eligible and
  // bypass the caches.)
  session.solve({g.source, g.sink, 2});
  session.solve({g.source, g.sink, 3});
  EXPECT_GE(session.cache_evictions(), 1u);

  // The evicted demand still answers correctly (rebuild, not corruption).
  const SolveReport again = session.solve({g.source, g.sink, 2});
  EXPECT_EQ(again.result.reliability,
            compute_reliability(g.net, {g.source, g.sink, 2})
                .result.reliability);
}

TEST(QuerySession, InvalidOverridesThrow) {
  const GeneratedNetwork g = test_instance();
  QuerySession session(g.net);
  const FlowDemand demand{g.source, g.sink, 1};
  const std::vector<ProbOverride> bad_edge{{g.net.num_edges(), 0.1}};
  EXPECT_THROW(session.solve(demand, {}, bad_edge), std::invalid_argument);
  const std::vector<ProbOverride> bad_prob{{0, 1.5}};
  EXPECT_THROW(session.solve(demand, {}, bad_prob), std::invalid_argument);
}

TEST(QuerySession, DisabledCacheStillAnswersCorrectly) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QueryCacheOptions cache;
  cache.enabled = false;
  QuerySession session(g.net, cache);
  const SolveReport a = session.solve(demand);
  const SolveReport b = session.solve(demand);
  EXPECT_EQ(session.cache_hits(), 0u);
  EXPECT_EQ(a.result.reliability, b.result.reliability);
  EXPECT_EQ(a.result.reliability,
            compute_reliability(g.net, demand).result.reliability);
}

TEST(QuerySession, TelemetryCountsQueries) {
  const GeneratedNetwork g = test_instance();
  QuerySession session(g.net);
  session.solve({g.source, g.sink, 1});
  session.solve({g.source, g.sink, 1});
  EXPECT_EQ(session.telemetry().counter_or(telemetry_keys::kQueries), 2u);
}

// --- Work counted once ---------------------------------------------------
//
// An answer carries the work its own solve did: the solve that builds a
// structure reports the build, and a cache hit reports none.

TEST(QuerySession, ColdAnswerCountsTheFacadesWork) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport cold = session.solve(demand);
  const SolveReport facade = compute_reliability(g.net, demand);
  ASSERT_GT(facade.result.maxflow_calls(), 0u);
  EXPECT_TRUE(cold.result.telemetry.counters_equal(facade.result.telemetry));
}

TEST(QuerySession, WarmAnswerCarriesNoBuildWork) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const std::vector<ProbOverride> overrides{{0, 0.25}};

  QuerySession session(g.net);
  session.solve(demand);
  const SolveReport warm = session.solve(demand, {}, overrides);
  ASSERT_EQ(warm.result.status, SolveStatus::kExact);
  EXPECT_GT(session.cache_hits(), 0u);
  EXPECT_EQ(warm.result.maxflow_calls(), 0u);
  EXPECT_EQ(warm.result.configurations(), 0u);
  EXPECT_TRUE(warm.result.telemetry.empty());
}

// Finds an edge strictly inside the source-side cluster (never crossing).
EdgeId side_internal_edge(const GeneratedNetwork& g, bool source_side) {
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    const bool u_s = g.side_s[static_cast<std::size_t>(link.u)];
    const bool v_s = g.side_s[static_cast<std::size_t>(link.v)];
    if (u_s == v_s && u_s == source_side) return e;
  }
  ADD_FAILURE() << "instance has no side-internal edge";
  return 0;
}

TEST(QuerySession, SideInternalCapacityEditSalvagesTheOtherSide) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);  // warm: one cached mask entry

  const EdgeId inside_s = side_internal_edge(g, true);
  NetworkDelta delta;
  delta.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);
  const DeltaOutcome outcome = session.apply_delta(delta);

  // Touch confined to side s: the entry is dropped but side t is
  // salvaged — a partial invalidation, with the partition kept.
  EXPECT_EQ(outcome.applied, DeltaClass::kCapacityOnly);
  EXPECT_EQ(outcome.entries_partial, 1u);
  EXPECT_EQ(outcome.entries_full, 0u);
  EXPECT_GE(outcome.partitions_survived, 1u);
  EXPECT_GE(outcome.assignments_survived, 1u);
  EXPECT_EQ(session.cache_invalidations_partial(), 1u);
  EXPECT_EQ(session.cache_invalidations_full(), 0u);

  // The rebuild adopts the salvaged side and stays bitwise-correct.
  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(inside_s, edited.edge(inside_s).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
  const Telemetry* cache = session.telemetry().find_child("cache");
  ASSERT_NE(cache, nullptr);
  const Telemetry* masks = cache->find_child("masks");
  ASSERT_NE(masks, nullptr);
  EXPECT_EQ(masks->counter_or(telemetry_keys::kSideRepairs), 1u);
}

// --- Patched sides ------------------------------------------------------
//
// A capacity delta inside a side keeps that side's old table as a prior:
// the next rebuild patches it (kSidePatches) and adopts an untouched
// side verbatim (kSideRepairs). Every answer must stay bitwise equal to
// a cold solve of the edited network.

/// Every link strictly inside one cluster.
std::vector<EdgeId> side_internal_edges(const GeneratedNetwork& g,
                                        bool source_side) {
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    const bool u_s = g.side_s[static_cast<std::size_t>(link.u)];
    const bool v_s = g.side_s[static_cast<std::size_t>(link.v)];
    if (u_s == v_s && u_s == source_side) out.push_back(e);
  }
  return out;
}

EdgeId crossing_edge(const GeneratedNetwork& g) {
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    if (g.side_s[static_cast<std::size_t>(link.u)] !=
        g.side_s[static_cast<std::size_t>(link.v)]) {
      return e;
    }
  }
  ADD_FAILURE() << "instance has no crossing edge";
  return 0;
}

/// (side_repairs, side_patches) under the session's cache/masks layer.
std::pair<std::uint64_t, std::uint64_t> side_reuse_counts(
    const QuerySession& session) {
  const Telemetry* cache = session.telemetry().find_child("cache");
  const Telemetry* masks = cache ? cache->find_child("masks") : nullptr;
  if (!masks) return {0, 0};
  return {masks->counter_or(telemetry_keys::kSideRepairs),
          masks->counter_or(telemetry_keys::kSidePatches)};
}

void expect_bitwise_cold(QuerySession& session, const FlowDemand& demand) {
  const SolveReport served = session.solve(demand);
  ASSERT_EQ(served.result.status, SolveStatus::kExact);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(session.network(), demand).result.reliability);
}

// After a side-only edit the rebuild patches the touched side and adopts
// the other: the answer counts the patch's queries and nothing for the
// adopted side, which shows up only as a repair.
TEST(QuerySession, PatchedRebuildCountsOnlyThePatchedSide) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const EdgeId inside_s = side_internal_edge(g, true);

  QuerySession session(g.net);
  const SolveReport cold = session.solve(demand);
  ASSERT_TRUE(cold.partition.has_value());
  const BottleneckPartition& partition = cold.partition->partition;
  FlowNetwork edited = g.net;
  edited.set_capacity(inside_s, edited.edge(inside_s).capacity + 1);
  session.set_capacity(inside_s, edited.edge(inside_s).capacity);
  const SolveReport served = session.solve(demand);
  ASSERT_EQ(served.result.status, SolveStatus::kExact);

  // The patch on its own: the old side's table seeds the edited side.
  const AssignmentSet set = enumerate_assignments(g.net, partition,
                                                  demand.rate, {});
  const SideProblem before = make_side_problem(g.net, demand, partition, true);
  const SideProblem after = make_side_problem(edited, demand, partition, true);
  const SlabMaskTable old_table = build_side_array(before, set, demand.rate);
  const std::optional<SidePrior> prior = side_prior(before, old_table, after);
  ASSERT_TRUE(prior.has_value());
  SideArrayStats patch;
  build_side_array(after, set, demand.rate, &patch, nullptr, &*prior);
  ASSERT_GT(patch.maxflow_calls(), 0u);

  const Telemetry& tel = served.result.telemetry;
  EXPECT_EQ(served.result.maxflow_calls(), patch.maxflow_calls());
  EXPECT_LT(served.result.maxflow_calls(), cold.result.maxflow_calls());
  const Telemetry* side_t = tel.find_child("side_t");
  EXPECT_EQ(side_t ? side_t->counter_or(telemetry_keys::kMaxflowCalls) : 0u,
            0u);
  EXPECT_EQ(tel.counter_or(telemetry_keys::kSideRepairs), 1u);
  EXPECT_EQ(tel.counter_or(telemetry_keys::kSidePatches), 1u);
}

TEST(QuerySession, SuccessiveSideDeltasComposeIntoOnePatch) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const std::vector<EdgeId> inside_s = side_internal_edges(g, true);
  ASSERT_GE(inside_s.size(), 2u);

  QuerySession session(g.net);
  session.solve(demand);
  session.set_capacity(inside_s[0], g.net.edge(inside_s[0]).capacity + 1);
  // The entry is gone already; the second delta must keep the priors.
  NetworkDelta second;
  second.set_capacity(inside_s[1],
                      std::max<Capacity>(0, g.net.edge(inside_s[1]).capacity -
                                                1));
  const DeltaOutcome outcome = session.apply_delta(second);
  EXPECT_EQ(outcome.entries_full + outcome.entries_partial, 0u);

  expect_bitwise_cold(session, demand);
  EXPECT_EQ(side_reuse_counts(session),
            (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
}

TEST(QuerySession, DeltaTouchingBothSidesPatchesBoth) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const EdgeId inside_s = side_internal_edge(g, true);
  const EdgeId inside_t = side_internal_edge(g, false);

  QuerySession session(g.net);
  session.solve(demand);
  NetworkDelta delta;
  delta.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);
  delta.set_capacity(inside_t, 0);
  const DeltaOutcome outcome = session.apply_delta(delta);
  // No side survives verbatim, so the entry counts as a full drop.
  EXPECT_EQ(outcome.entries_full, 1u);
  EXPECT_EQ(outcome.entries_partial, 0u);

  expect_bitwise_cold(session, demand);
  EXPECT_EQ(side_reuse_counts(session),
            (std::pair<std::uint64_t, std::uint64_t>{0, 2}));
}

TEST(QuerySession, CrossingEditAfterSideEditDropsThePriors) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const EdgeId inside_s = side_internal_edge(g, true);
  const EdgeId crossing = crossing_edge(g);

  QuerySession session(g.net);
  session.solve(demand);
  session.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);
  session.set_capacity(crossing, g.net.edge(crossing).capacity + 1);

  // The assignment set changed: both sides are swept from scratch.
  expect_bitwise_cold(session, demand);
  EXPECT_EQ(side_reuse_counts(session),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
}

TEST(QuerySession, StoppedPatchedBuildStaysExact) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const EdgeId inside_s = side_internal_edge(g, true);

  QuerySession session(g.net);
  session.solve(demand);
  session.set_capacity(inside_s, g.net.edge(inside_s).capacity + 1);

  // A stop observed inside the rebuild: no answer, nothing cached.
  ExecContext stopped;
  stopped.request_cancel();
  SolveOptions options;
  options.context = &stopped;
  const SolveReport interrupted = session.solve(demand, options);
  EXPECT_EQ(interrupted.result.status, SolveStatus::kCancelled);
  EXPECT_EQ(session.cached_mask_tables(), 0u);

  // The priors outlive the stop: the next solve patches and adopts them.
  expect_bitwise_cold(session, demand);
  EXPECT_EQ(side_reuse_counts(session),
            (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
}

// The kept-side store is bounded like the mask LRU: the sides of keys
// that are not solved again give way to newer ones, so a side-only delta
// still keeps the sides of the keys being served, and a smaller cache
// budget trims the store too.
TEST(QuerySession, KeptSidesEvictTheLeastRecentlyUsedBeyondTheBudget) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  const std::vector<EdgeId> inside_s = side_internal_edges(g, true);
  ASSERT_GE(inside_s.size(), 2u);
  // Four cache keys, one per assignment guard.
  const auto options_for = [](int key) {
    SolveOptions options;
    options.bottleneck.assignments.max_assignments = kMaxMaskBits - key;
    return options;
  };
  const auto expect_cold = [&](QuerySession& session, int key) {
    const SolveReport served = session.solve(demand, options_for(key));
    ASSERT_EQ(served.result.status, SolveStatus::kExact);
    EXPECT_EQ(served.result.reliability,
              compute_reliability(session.network(), demand, options_for(key))
                  .result.reliability);
  };
  const auto bump = [&](QuerySession& session, EdgeId e) {
    NetworkDelta delta;
    delta.set_capacity(e, session.network().edge(e).capacity + 1);
    return session.apply_delta(delta);
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;

  QueryCacheOptions cache;
  cache.max_mask_tables = 2;
  QuerySession session(g.net, cache);
  // Keys 0 and 1 are solved, edited, and left: their sides stay kept.
  for (const int key : {0, 1}) session.solve(demand, options_for(key));
  EXPECT_EQ(bump(session, inside_s[0]).entries_partial, 2u);
  // Keys 2 and 3 fill the mask cache; the next side delta keeps their
  // sides and evicts the stale ones of keys 0 and 1.
  for (const int key : {2, 3}) session.solve(demand, options_for(key));
  const DeltaOutcome outcome = bump(session, inside_s[1]);
  EXPECT_EQ(outcome.entries_partial, 2u);
  EXPECT_EQ(outcome.entries_full, 0u);

  expect_cold(session, 3);  // side s patched, side t adopted
  EXPECT_EQ(side_reuse_counts(session), (Counts{1, 1}));
  expect_cold(session, 0);  // its sides were evicted: a full sweep
  EXPECT_EQ(side_reuse_counts(session), (Counts{1, 1}));

  // The cache holds keys 0 and 3 (key 0 most recently used); key 2's
  // sides are still kept. A third delta keeps 0 and 3 and evicts 2.
  // Shrinking the budget to one then keeps only key 0's sides.
  EXPECT_EQ(bump(session, inside_s[0]).entries_partial, 2u);
  session.set_cache_budget(1);
  expect_cold(session, 2);
  expect_cold(session, 3);
  EXPECT_EQ(side_reuse_counts(session), (Counts{1, 1}));
  expect_cold(session, 0);
  EXPECT_EQ(side_reuse_counts(session), (Counts{2, 2}));
}

TEST(QuerySession, CrossingCapacityEditDropsEntryAndAssignments) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  // A crossing edge joins the two clusters.
  EdgeId crossing = 0;
  for (EdgeId e = 0; e < g.net.num_edges(); ++e) {
    const Edge& link = g.net.edge(e);
    if (g.side_s[static_cast<std::size_t>(link.u)] !=
        g.side_s[static_cast<std::size_t>(link.v)]) {
      crossing = e;
      break;
    }
  }
  NetworkDelta delta;
  delta.set_capacity(crossing, g.net.edge(crossing).capacity + 1);
  const DeltaOutcome outcome = session.apply_delta(delta);

  EXPECT_EQ(outcome.entries_full, 1u);
  EXPECT_EQ(outcome.entries_partial, 0u);
  EXPECT_EQ(outcome.assignments_survived, 0u);  // assignment set was dropped
  EXPECT_GE(outcome.partitions_survived, 1u);   // candidates are kept

  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(crossing, edited.edge(crossing).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, ProbabilityDeltaSurvivesAllLayers) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  NetworkDelta delta;
  delta.set_failure_prob(0, 0.42).set_failure_prob(1, 0.17);
  const DeltaOutcome outcome = session.apply_delta(delta);
  EXPECT_EQ(outcome.applied, DeltaClass::kProbabilityOnly);
  EXPECT_EQ(outcome.entries_survived, 1u);
  EXPECT_EQ(outcome.entries_full, 0u);
  EXPECT_EQ(session.cache_survived(), 1u);

  const std::uint64_t misses = session.cache_misses();
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);  // no rebuild at all

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.42);
  edited.set_failure_prob(1, 0.17);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, InvalidDeltaIsAtomic) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(g.net);
  session.solve(demand);
  const std::uint64_t misses = session.cache_misses();

  NetworkDelta bad;
  bad.set_failure_prob(0, 0.3).set_capacity(g.net.num_edges(), 2);
  EXPECT_THROW(session.apply_delta(bad), std::invalid_argument);

  // Neither the network nor the caches moved.
  EXPECT_EQ(session.network().edge(0).failure_prob,
            g.net.edge(0).failure_prob);
  session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);
}

TEST(QuerySession, AliasProbabilityEditFastPathKeepsCaches) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport before = session.solve(demand);
  (void)before;
  const std::uint64_t misses = session.cache_misses();

  // The documented alias flow: edit probabilities directly, then declare
  // the edit class. Structural artifacts must survive.
  session.mutable_network().set_failure_prob(0, 0.37);
  session.invalidate(DeltaClass::kProbabilityOnly);
  EXPECT_EQ(session.cache_invalidations(), 0u);
  EXPECT_GE(session.cache_survived(), 1u);

  const SolveReport served = session.solve(demand);
  EXPECT_EQ(session.cache_misses(), misses);  // fast path: no rebuild

  FlowNetwork edited = g.net;
  edited.set_failure_prob(0, 0.37);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, AliasStructuralEditFlushesEverything) {
  const GeneratedNetwork g = test_instance();
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  session.mutable_network().set_capacity(0, g.net.edge(0).capacity + 1);
  session.invalidate(DeltaClass::kCapacityOnly);  // touched set unknown
  EXPECT_EQ(session.cache_invalidations(), 1u);
  EXPECT_GE(session.cache_invalidations_full(), 1u);

  const SolveReport served = session.solve(demand);
  FlowNetwork edited = g.net;
  edited.set_capacity(0, edited.edge(0).capacity + 1);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(edited, demand).result.reliability);
}

TEST(QuerySession, TopologyDeltaTranslatesAndRecovers) {
  const GeneratedNetwork g = test_instance();
  FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  session.solve(demand);

  NetworkDelta join;
  const NodeId peer = join.add_node(g.net.num_nodes());
  join.add_edge(g.source, peer, 1, 0.1);
  join.add_edge(peer, g.sink, 1, 0.1);
  const DeltaOutcome outcome = session.apply_delta(join);
  EXPECT_EQ(outcome.applied, DeltaClass::kTopology);
  EXPECT_EQ(outcome.entries_full, 1u);  // the warm entry was flushed

  demand.source = outcome.node_map[static_cast<std::size_t>(g.source)];
  demand.sink = outcome.node_map[static_cast<std::size_t>(g.sink)];
  const SolveReport served = session.solve(demand);
  EXPECT_EQ(served.result.reliability,
            compute_reliability(session.network(), demand)
                .result.reliability);
}

}  // namespace
}  // namespace streamrel
