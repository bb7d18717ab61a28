// A side array's resting form and its fold: slab/config form roundtrips
// and palette order, the fold pinned bitwise to its definition across
// index widths and probability extremes, and the fold against a direct
// per-configuration reference and with perfect (p = 0) links. The
// sweep's arrays are checked against the paper's procedure in
// test_side_array.

#include "streamrel/core/side_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "streamrel/graph/generators.hpp"
#include "streamrel/util/config_prob.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {
namespace {

TEST(SlabMaskTable, RoundTripsWithTheConfigIndexedForm) {
  Xoshiro256 rng(20260808);
  const int links = 7;
  std::vector<Mask> array(std::size_t{1} << links);
  for (Mask& m : array) m = rng() & 0xFF;

  const SlabMaskTable table = slab_form(array, links);
  EXPECT_EQ(table.num_links, links);
  EXPECT_EQ(config_form(table), array);
  // The palette lists the distinct masks in first-seen configuration
  // order.
  std::vector<Mask> first_seen;
  for (const Mask m : array) {
    if (std::find(first_seen.begin(), first_seen.end(), m) ==
        first_seen.end()) {
      first_seen.push_back(m);
    }
  }
  EXPECT_EQ(table.palette, first_seen);
  EXPECT_THROW(slab_form(array, links + 1), std::invalid_argument);
}

// The fold's definition, written out: each configuration's probability
// is the product of its edge factors (alive ? 1 - p : p) in ascending
// edge order from 1.0; per-bucket += and a KahanSum total, both over
// configurations 0..2^m-1; buckets sorted by mask.
MaskDistribution reference_fold(const std::vector<Mask>& array, int m,
                                const std::vector<double>& probs) {
  std::map<Mask, double> sums;
  KahanSum total;
  for (Mask config = 0; config < static_cast<Mask>(array.size()); ++config) {
    double p = 1.0;
    for (int e = 0; e < m; ++e) {
      const double q = probs[static_cast<std::size_t>(e)];
      p *= test_bit(config, e) ? 1.0 - q : q;
    }
    sums[array[static_cast<std::size_t>(config)]] += p;
    total.add(p);
  }
  MaskDistribution dist;
  dist.buckets.assign(sums.begin(), sums.end());
  dist.total = total.value();
  return dist;
}

void expect_bitwise_fold(const std::vector<Mask>& array, int m,
                         const std::vector<double>& probs,
                         const std::string& what) {
  FlowNetwork net(2);
  for (int e = 0; e < m; ++e) net.add_undirected_edge(0, 1, 1, 0.5);
  SideProblem side;
  side.view = NetworkView(CompiledNetwork::compile(net));
  const MaskDistribution got =
      bucket_side_array(side, slab_form(array, m), probs);
  const MaskDistribution want = reference_fold(array, m, probs);
  ASSERT_EQ(got.buckets.size(), want.buckets.size()) << what;
  for (std::size_t i = 0; i < want.buckets.size(); ++i) {
    EXPECT_EQ(got.buckets[i].first, want.buckets[i].first) << what;
    EXPECT_EQ(0, std::memcmp(&got.buckets[i].second, &want.buckets[i].second,
                             sizeof(double)))
        << what << " bucket " << i;
  }
  EXPECT_EQ(0, std::memcmp(&got.total, &want.total, sizeof(double))) << what;
}

TEST(FoldPin, BitwiseEqualToTheDefinitionalFold) {
  Xoshiro256 rng(424242);
  for (const int m : {0, 1, 5, 6, 7, 10, 11, 16, 18}) {
    const std::size_t n = std::size_t{1} << m;
    std::vector<std::vector<double>> prob_sets;
    for (const double p : {0.0, 0.5, 0.999}) {
      prob_sets.emplace_back(static_cast<std::size_t>(m), p);
    }
    std::vector<double> mixed(static_cast<std::size_t>(m));
    for (std::size_t e = 0; e < mixed.size(); ++e) {
      const double choices[] = {0.0, 0.5, 0.999, rng.uniform01()};
      mixed[e] = choices[e % 4];
    }
    prob_sets.push_back(mixed);

    for (const std::size_t palette :
         {std::size_t{1}, std::size_t{256}, std::size_t{257}}) {
      // Distinct masks (an odd multiplier is a bijection mod 2^62); the
      // first configurations see every palette entry, so the table holds
      // exactly min(palette, 2^m) of them.
      std::vector<Mask> array(n);
      for (std::size_t c = 0; c < n; ++c) {
        const Mask slot = c < palette ? c : rng.uniform_below(palette);
        array[c] = (slot * 0x9e3779b97f4a7c15ULL) & ((Mask{1} << 62) - 1);
      }
      const SlabMaskTable table = slab_form(array, m);
      ASSERT_EQ(table.palette.size(), std::min(palette, n));
      EXPECT_EQ(table.index.index(), table.palette.size() > 256 ? 1u : 0u);
      for (std::size_t k = 0; k < prob_sets.size(); ++k) {
        expect_bitwise_fold(array, m, prob_sets[k],
                            "m=" + std::to_string(m) + " palette=" +
                                std::to_string(palette) + " probs#" +
                                std::to_string(k));
      }
    }
  }

  // A palette above 65,536 masks needs the four-byte index.
  const int m = 17;
  std::vector<Mask> array(std::size_t{1} << m);
  for (Mask& mask : array) mask = rng() >> 1;
  const SlabMaskTable table = slab_form(array, m);
  ASSERT_GT(table.palette.size(), 65536u);
  EXPECT_EQ(table.index.index(), 2u);
  EXPECT_EQ(config_form(table), array);
  std::vector<double> probs(static_cast<std::size_t>(m));
  for (double& p : probs) p = rng.uniform01();
  expect_bitwise_fold(array, m, probs, "m=17 random masks");
}

TEST(BucketDistributionStreamed, MatchesDirectFold) {
  Xoshiro256 rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    ClusteredParams params;
    params.nodes_s = 4 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_links = 2;
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const AssignmentSet assignments =
        enumerate_assignments(g.net, partition, 2, {AssignmentMode::kAuto});
    if (assignments.size() == 0) continue;
    const SideProblem side =
        make_side_problem(g.net, {g.source, g.sink, 2}, partition, true);
    const SlabMaskTable table = build_side_array(side, assignments, 2);
    const std::vector<Mask> array = config_form(table);

    const MaskDistribution dist = bucket_side_array(side, table);
    // Reference fold: direct per-configuration products, numeric order.
    const std::vector<double> probs = side.view.failure_probs();
    std::unordered_map<Mask, double> reference;
    for (Mask config = 0; config < static_cast<Mask>(array.size());
         ++config) {
      reference[array[static_cast<std::size_t>(config)]] +=
          config_probability(probs, config);
    }
    ASSERT_EQ(dist.buckets.size(), reference.size()) << "trial " << trial;
    for (const auto& [mask, p] : dist.buckets) {
      ASSERT_TRUE(reference.count(mask));
      EXPECT_NEAR(p, reference[mask], 1e-12) << "trial " << trial;
    }
    EXPECT_NEAR(dist.total, 1.0, 1e-12);
  }
}

TEST(BucketDistributionStreamed, HandlesZeroFailureProbabilities) {
  // Perfect links make dead-configurations probability 0; the streamed
  // ratio update must not divide by zero.
  FlowNetwork net(3);
  net.add_undirected_edge(0, 1, 2, 0.0);  // perfect link
  net.add_undirected_edge(1, 2, 2, 0.25);
  net.add_undirected_edge(0, 1, 1, 0.0);  // second perfect link
  net.add_undirected_edge(1, 2, 1, 0.5);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 2, {true, true, false});
  const FlowDemand demand{0, 2, 1};
  const AssignmentSet assignments =
      enumerate_assignments(net, partition, 1, {AssignmentMode::kAuto});
  ASSERT_GT(assignments.size(), 0);
  const SideProblem side = make_side_problem(net, demand, partition, true);
  const MaskDistribution dist =
      bucket_side_array(side, build_side_array(side, assignments, 1));
  EXPECT_NEAR(dist.total, 1.0, 1e-12);
  for (const auto& [mask, p] : dist.buckets) EXPECT_GE(p, 0.0);
}

}  // namespace
}  // namespace streamrel
