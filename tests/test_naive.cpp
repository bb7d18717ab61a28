#include "streamrel/reliability/naive.hpp"

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "streamrel/graph/generators.hpp"
#include "test_support.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

using testing::brute_force_reliability;
using testing::kTol;

TEST(NaiveReliability, SingleLink) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.3);
  const auto result = reliability_naive(net, {0, 1, 1});
  EXPECT_NEAR(result.reliability, 0.7, kTol);
  EXPECT_EQ(result.configurations(), 2u);
}

TEST(NaiveReliability, SeriesMultiplies) {
  const FlowNetwork net = testing::series_pair(0.1, 0.2);
  EXPECT_NEAR(reliability_naive(net, {0, 2, 1}).reliability, 0.9 * 0.8, kTol);
}

TEST(NaiveReliability, ParallelComplements) {
  const FlowNetwork net = testing::parallel_pair(0.1, 0.2);
  // 1 - P(both down).
  EXPECT_NEAR(reliability_naive(net, {0, 1, 1}).reliability,
              1.0 - 0.1 * 0.2, kTol);
}

TEST(NaiveReliability, ParallelDemandTwoNeedsBoth) {
  const FlowNetwork net = testing::parallel_pair(0.1, 0.2);
  EXPECT_NEAR(reliability_naive(net, {0, 1, 2}).reliability, 0.9 * 0.8, kTol);
}

TEST(NaiveReliability, CapacityGatesDemand) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 2, 0.25);
  EXPECT_NEAR(reliability_naive(net, {0, 1, 2}).reliability, 0.75, kTol);
  EXPECT_NEAR(reliability_naive(net, {0, 1, 3}).reliability, 0.0, kTol);
}

TEST(NaiveReliability, DiamondHandComputed) {
  // All links p = 0.5, demand 1: reliability = (# admitting configs)/32.
  const FlowNetwork net = testing::diamond(0.5);
  const auto result = reliability_naive(net, {0, 3, 1});
  EXPECT_NEAR(result.reliability, brute_force_reliability(net, {0, 3, 1}),
              kTol);
  // Two-terminal reliability of this bridge network at p=1/2 is 16/32.
  EXPECT_NEAR(result.reliability, 0.5, kTol);
}

TEST(NaiveReliability, ZeroFailureProbabilityGivesCertainty) {
  const FlowNetwork net = testing::series_pair(0.0, 0.0);
  EXPECT_NEAR(reliability_naive(net, {0, 2, 1}).reliability, 1.0, kTol);
}

TEST(NaiveReliability, DisconnectedDemandIsZero) {
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_DOUBLE_EQ(reliability_naive(net, {0, 2, 1}).reliability, 0.0);
}

TEST(NaiveReliability, MatchesBruteForceOnRandomGraphs) {
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const EdgeKind kind = (trial % 2 == 0) ? EdgeKind::kUndirected
                                           : EdgeKind::kDirected;
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(2, 6)),
        static_cast<int>(rng.uniform_int(1, 10)), {1, 3}, {0.0, 0.6}, kind);
    const FlowDemand demand{g.source, g.sink, rng.uniform_int(1, 3)};
    EXPECT_NEAR(reliability_naive(g.net, demand).reliability,
                brute_force_reliability(g.net, demand), kTol)
        << "trial " << trial;
  }
}

class NaiveStrategyTest : public ::testing::TestWithParam<NaiveStrategy> {};

TEST_P(NaiveStrategyTest, AllStrategiesAgree) {
  Xoshiro256 rng(4096);
  NaiveOptions options;
  options.strategy = GetParam();
  for (int trial = 0; trial < 30; ++trial) {
    const EdgeKind kind = (trial % 2 == 0) ? EdgeKind::kUndirected
                                           : EdgeKind::kDirected;
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(2, 6)),
        static_cast<int>(rng.uniform_int(1, 11)), {1, 3}, {0.0, 0.5}, kind);
    const FlowDemand demand{g.source, g.sink, rng.uniform_int(1, 3)};
    const double reference = reliability_naive(g.net, demand).reliability;
    EXPECT_NEAR(reliability_naive(g.net, demand, options).reliability,
                reference, kTol)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, NaiveStrategyTest,
    ::testing::Values(NaiveStrategy::kFromScratch,
                      NaiveStrategy::kGrayIncremental,
                      NaiveStrategy::kParallel),
    [](const ::testing::TestParamInfo<NaiveStrategy>& param_info) {
      switch (param_info.param) {
        case NaiveStrategy::kFromScratch:
          return "from_scratch";
        case NaiveStrategy::kGrayIncremental:
          return "gray_incremental";
        case NaiveStrategy::kParallel:
          return "parallel";
      }
      return "unknown";
    });

#ifdef _OPENMP
TEST(NaiveReliability, ParallelPathIsExactWithForcedThreadCount) {
  // Even on a single-core host, force several OpenMP threads so the
  // parallel range split and per-thread merge actually execute.
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  Xoshiro256 rng(1212);
  NaiveOptions options;
  options.strategy = NaiveStrategy::kParallel;
  for (int trial = 0; trial < 10; ++trial) {
    const GeneratedNetwork g = random_multigraph(
        rng, static_cast<int>(rng.uniform_int(3, 6)),
        static_cast<int>(rng.uniform_int(10, 14)), {1, 3}, {0.05, 0.5});
    const FlowDemand demand{g.source, g.sink, 2};
    EXPECT_NEAR(reliability_naive(g.net, demand, options).reliability,
                reliability_naive(g.net, demand).reliability, kTol);
  }
  omp_set_num_threads(saved);
}
#endif

TEST(NaiveReliability, RejectsOversizedNetworks) {
  FlowNetwork net(2);
  for (int i = 0; i < 64; ++i) net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_THROW(reliability_naive(net, {0, 1, 1}), std::invalid_argument);
}

TEST(NaiveReliability, RejectsBadDemands) {
  FlowNetwork net(2);
  net.add_undirected_edge(0, 1, 1, 0.1);
  EXPECT_THROW(reliability_naive(net, {0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(reliability_naive(net, {0, 1, 0}), std::invalid_argument);
}

TEST(NaiveReliability, CountersReported) {
  const FlowNetwork net = testing::diamond(0.3);
  const auto result = reliability_naive(net, {0, 3, 1});
  EXPECT_EQ(result.configurations(), 32u);
  EXPECT_EQ(result.maxflow_calls(), 32u);
}

}  // namespace
}  // namespace streamrel
