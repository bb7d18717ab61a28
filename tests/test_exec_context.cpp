#include "streamrel/util/exec_context.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "streamrel/core/reliability_facade.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/reliability/factoring.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/telemetry.hpp"

namespace streamrel {
namespace {

TEST(Telemetry, CountersStartAtZeroAndAccumulate) {
  Telemetry t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.counter_or("never"), 0u);
  EXPECT_EQ(t.counter_or("never", 7u), 7u);
  t.counter(telemetry_keys::kMaxflowCalls) += 3;
  t.add(telemetry_keys::kMaxflowCalls, 2);
  EXPECT_EQ(t.counter_or(telemetry_keys::kMaxflowCalls), 5u);
  EXPECT_FALSE(t.empty());
}

TEST(Telemetry, MergeSumsCountersTimersAndChildren) {
  Telemetry a;
  a.counter("calls") = 10;
  a.timer_ms("total") = 1.0;
  a.child("side_s").counter("calls") = 4;

  Telemetry b;
  b.counter("calls") = 5;
  b.counter("other") = 1;
  b.timer_ms("total") = 2.0;
  b.child("side_s").counter("calls") = 6;
  b.child("side_t").counter("calls") = 2;

  a.merge(b);
  EXPECT_EQ(a.counter_or("calls"), 15u);
  EXPECT_EQ(a.counter_or("other"), 1u);
  EXPECT_DOUBLE_EQ(a.timer_ms_or("total"), 3.0);
  ASSERT_NE(a.find_child("side_s"), nullptr);
  EXPECT_EQ(a.find_child("side_s")->counter_or("calls"), 10u);
  ASSERT_NE(a.find_child("side_t"), nullptr);
  EXPECT_EQ(a.find_child("side_t")->counter_or("calls"), 2u);
  EXPECT_EQ(a.find_child("absent"), nullptr);
}

TEST(Telemetry, CountersEqualIgnoresTimers) {
  Telemetry a;
  a.counter("calls") = 3;
  a.child("sub").counter("steps") = 9;
  a.timer_ms("total") = 1.0;

  Telemetry b;
  b.counter("calls") = 3;
  b.child("sub").counter("steps") = 9;
  b.timer_ms("total") = 250.0;  // wall clock differs; counters agree
  EXPECT_TRUE(a.counters_equal(b));

  b.child("sub").counter("steps") = 8;
  EXPECT_FALSE(a.counters_equal(b));

  Telemetry c;
  c.counter("calls") = 3;
  EXPECT_FALSE(a.counters_equal(c));  // child structure differs
}

TEST(Telemetry, ToJsonRendersCountersTimersAndNestedChildren) {
  Telemetry t;
  t.counter("configurations") = 3;
  t.timer_ms("total") = 1.5;
  t.child("side_s").counter("maxflow_calls") = 2;
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"configurations\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\": 1.500"), std::string::npos);
  EXPECT_NE(json.find("\"side_s\": {\"maxflow_calls\": 2}"),
            std::string::npos);
}

TEST(ExecContext, DefaultHasNoDeadlineAndNeverStops) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.should_stop());
  EXPECT_EQ(ctx.stop_status(), SolveStatus::kExact);
  EXPECT_GT(ctx.remaining_ms(), 1e12);  // +inf
  EXPECT_NO_THROW(ctx.check());
  EXPECT_GE(ctx.resolved_threads(), 1);
}

TEST(ExecContext, ZeroDeadlineStopsImmediately) {
  const ExecContext ctx = ExecContext::with_deadline_ms(0.0);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.should_stop());
  EXPECT_EQ(ctx.stop_status(), SolveStatus::kDeadlineExpired);
  try {
    ctx.check();
    FAIL() << "check() must throw on an expired deadline";
  } catch (const ExecInterrupted& stop) {
    EXPECT_EQ(stop.status, SolveStatus::kDeadlineExpired);
  }
}

// A budget of a year or more, or a non-finite one, is no deadline: the
// time point it would give overflows steady_clock into the past.
TEST(ExecContext, HugeOrNonFiniteDeadlineMeansNoDeadline) {
  for (const double ms : {1e13, 1e300, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          ExecContext::kNoDeadlineMs}) {
    const ExecContext ctx = ExecContext::with_deadline_ms(ms);
    EXPECT_FALSE(ctx.has_deadline()) << ms;
    EXPECT_FALSE(ctx.should_stop()) << ms;
    EXPECT_EQ(ctx.stop_status(), SolveStatus::kExact) << ms;
    EXPECT_GT(ctx.remaining_ms(), 1e12) << ms;
  }
  // Just under a year is still a deadline, far away.
  const ExecContext year = ExecContext::with_deadline_ms(3.1e10);
  EXPECT_TRUE(year.has_deadline());
  EXPECT_FALSE(year.should_stop());
  EXPECT_GT(year.remaining_ms(), 3.0e10);
  // Setting a huge budget clears an earlier deadline.
  ExecContext ctx = ExecContext::with_deadline_ms(0.0);
  ctx.set_deadline_ms(1e13);
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.should_stop());
}

TEST(ExecContext, CancellationIsSharedAcrossCopiesAndBeatsTheDeadline) {
  ExecContext ctx = ExecContext::with_deadline_ms(0.0);
  ExecContext copy = ctx;
  EXPECT_FALSE(copy.cancel_requested());
  ctx.request_cancel();
  EXPECT_TRUE(copy.cancel_requested());
  // Both the deadline and the cancellation hold; cancellation wins.
  EXPECT_EQ(copy.stop_status(), SolveStatus::kCancelled);
}

TEST(ExecContext, SolveStatusNames) {
  EXPECT_EQ(to_string(SolveStatus::kExact), "exact");
  EXPECT_EQ(to_string(SolveStatus::kDeadlineExpired), "deadline_expired");
  EXPECT_EQ(to_string(SolveStatus::kBudgetExhausted), "budget_exhausted");
  EXPECT_EQ(to_string(SolveStatus::kCancelled), "cancelled");
}

TEST(ExecContext, ResultCountersAreViewsOverTelemetry) {
  Xoshiro256 rng(42);
  const GeneratedNetwork g = random_connected(rng, 6, 5, {1, 2}, {0.1, 0.4});
  const ReliabilityResult result =
      reliability_factoring(g.net, {g.source, g.sink, 1});
  EXPECT_GT(result.configurations(), 0u);
  EXPECT_EQ(result.configurations(),
            result.telemetry.counter_or(telemetry_keys::kConfigurations));
  EXPECT_EQ(result.maxflow_calls(),
            result.telemetry.counter_or(telemetry_keys::kMaxflowCalls));
}

TEST(ExecContext, PreCancelledContextStopsASolveBeforeItStarts) {
  // 25 links: the naive sweep would need 2^25 max-flow calls, so only the
  // cooperative stop makes this return promptly.
  const GeneratedNetwork g = ladder_network(9, 1, 0.05);
  SolveOptions options;
  options.method = Method::kNaive;
  ExecContext ctx;
  ctx.request_cancel();
  options.context = &ctx;
  const SolveReport report =
      compute_reliability(g.net, {g.source, g.sink, 1}, options);
  EXPECT_EQ(report.result.status, SolveStatus::kCancelled);
  EXPECT_FALSE(report.exact());
  ASSERT_TRUE(report.bounds.has_value());
  EXPECT_LE(report.bounds->lower, report.bounds->upper);
}

TEST(ExecContext, CallerContextCollectsTelemetryAcrossSolves) {
  Xoshiro256 rng(7);
  const GeneratedNetwork g = random_connected(rng, 6, 6, {1, 2}, {0.1, 0.4});
  SolveOptions options;
  options.method = Method::kFactoring;
  ExecContext ctx;
  options.context = &ctx;
  compute_reliability(g.net, {g.source, g.sink, 1}, options);
  const std::uint64_t after_one =
      ctx.telemetry.counter_or(telemetry_keys::kConfigurations);
  EXPECT_GT(after_one, 0u);
  compute_reliability(g.net, {g.source, g.sink, 1}, options);
  EXPECT_EQ(ctx.telemetry.counter_or(telemetry_keys::kConfigurations),
            2 * after_one);
}

TEST(ExecContext, TelemetryCountersIndependentOfThreadCount) {
  // Sides with 14 internal links each: big enough (2^14 configurations)
  // that the certificate-closure sweep runs its assignments across the
  // pool. The determinism contract says the counters depend on the
  // instance, not on max_threads.
  Xoshiro256 rng(321);
  ClusteredParams params;
  params.nodes_s = 8;
  params.extra_edges_s = 7;
  params.nodes_t = 8;
  params.extra_edges_t = 7;
  params.bottleneck_links = 2;
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const FlowDemand demand{g.source, g.sink, 1};

  SolveOptions options;
  options.method = Method::kBottleneck;
  SolveReport reference;
  bool first = true;
  for (int threads : {1, 2, 0}) {
    options.max_threads = threads;
    const SolveReport report = compute_reliability(g.net, demand, options);
    EXPECT_EQ(report.result.status, SolveStatus::kExact);
    // build_side_array's certificate-closure sweep serves these sides,
    // so its lane accounting is part of the determinism contract:
    // both per-side subtrees must report word-wide lanes and the scalar
    // residue, and every (configuration, assignment) decision is counted
    // exactly once between them.
    const std::uint64_t num_assignments =
        report.result.telemetry.counter_or(telemetry_keys::kAssignments);
    ASSERT_GT(num_assignments, 0u);
    for (const char* side : {"side_s", "side_t"}) {
      const Telemetry* sub = report.result.telemetry.find_child(side);
      ASSERT_NE(sub, nullptr) << side;
      const std::uint64_t wordwise =
          sub->counter_or(telemetry_keys::kLanesWordwise);
      const std::uint64_t residue =
          sub->counter_or(telemetry_keys::kScalarResidue);
      EXPECT_GT(wordwise, 0u) << side << " threads=" << threads;
      EXPECT_EQ(wordwise + residue,
                (std::uint64_t{1} << 14) * num_assignments)
          << side << " threads=" << threads;
    }
    if (first) {
      reference = report;
      first = false;
      continue;
    }
    EXPECT_EQ(report.result.reliability, reference.result.reliability)
        << "threads=" << threads;  // bitwise identical
    EXPECT_TRUE(
        report.result.telemetry.counters_equal(reference.result.telemetry))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace streamrel
