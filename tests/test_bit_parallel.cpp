// The rank-ordered resting form of a side array: gray_rank, slab/config
// form roundtrips, the slab builder against the vector builder, and the
// fold pinned bitwise to its definition across index widths and
// probability extremes. The sweep's
// arrays are checked against the paper's procedure in test_side_array.

#include "streamrel/core/bit_slabs.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "streamrel/core/side_array.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/stats.hpp"

namespace streamrel {
namespace {

TEST(GrayRank, InvertsGrayCodeAcrossTheMaskRange) {
  for (Mask i = 0; i < 4096; ++i) {
    EXPECT_EQ(gray_rank(gray_code(i)), i);
    EXPECT_EQ(gray_code(gray_rank(i)), i);
  }
  for (const Mask i : {Mask{1} << 20, (Mask{1} << 40) + 12345,
                       (Mask{1} << 62) + 987654321, ~Mask{0} >> 1}) {
    EXPECT_EQ(gray_rank(gray_code(i)), i);
  }
}

TEST(SlabMaskTable, RoundTripsWithTheConfigIndexedForm) {
  Xoshiro256 rng(20260808);
  const int links = 7;
  std::vector<Mask> array(std::size_t{1} << links);
  for (Mask& m : array) m = rng() & 0xFF;

  const SlabMaskTable table = slab_form(array, links);
  EXPECT_EQ(table.num_links, links);
  EXPECT_EQ(config_form(table), array);
  for (Mask config = 0; config < (Mask{1} << links); ++config) {
    EXPECT_EQ(table.at_config(config),
              array[static_cast<std::size_t>(config)]);
  }
  for (Mask rank = 0; rank < (Mask{1} << links); ++rank) {
    EXPECT_EQ(table.at_rank(rank),
              array[static_cast<std::size_t>(gray_code(rank))]);
  }
  EXPECT_THROW(slab_form(array, links + 1), std::invalid_argument);
}

// The fold's definition, written out: each configuration's probability
// is the product of its edge factors (alive ? 1 - p : p) in ascending
// edge order from 1.0; per-bucket += and a KahanSum total, both in Gray
// rank order; buckets sorted by mask.
MaskDistribution reference_fold(const std::vector<Mask>& array, int m,
                                const std::vector<double>& probs) {
  std::map<Mask, double> sums;
  KahanSum total;
  for (Mask rank = 0; rank < static_cast<Mask>(array.size()); ++rank) {
    const Mask config = gray_code(rank);
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
      // first ranks see every palette entry, so the table holds exactly
      // min(palette, 2^m) of them.
      std::vector<Mask> array(n);
      for (std::size_t c = 0; c < n; ++c) {
        const Mask slot = c < palette ? c : rng.uniform_below(palette);
        array[static_cast<std::size_t>(gray_code(c))] =
            (slot * 0x9e3779b97f4a7c15ULL) & ((Mask{1} << 62) - 1);
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

TEST(BitParallelSweep, SlabBuilderMatchesTheVectorBuilder) {
  Xoshiro256 rng(99);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 2;
  params.nodes_t = 4;
  params.extra_edges_t = 1;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const Capacity d = 2;
  const AssignmentSet forward = enumerate_assignments(
      g.net, partition, d, {AssignmentMode::kForwardOnly});
  ASSERT_GT(forward.size(), 0);

  for (const bool source_side : {true, false}) {
    const SideProblem side = make_side_problem(
        g.net, {g.source, g.sink, d}, partition, source_side);
    SideArrayStats vec_stats;
    const std::vector<Mask> array =
        build_side_array(side, forward, d, &vec_stats);
    SideArrayStats slab_stats;
    const SlabMaskTable table =
        build_side_array_slab(side, forward, d, &slab_stats);
    EXPECT_EQ(config_form(table), array);
    EXPECT_EQ(vec_stats.certificate_misses(), 0u);
    EXPECT_EQ(table.num_links, side.view.num_edges());
    // Same sweep underneath: the counters agree exactly.
    EXPECT_TRUE(
        vec_stats.telemetry.counters_equal(slab_stats.telemetry));
    EXPECT_EQ(slab_form(array, side.view.num_edges()), table);
  }
}

}  // namespace
}  // namespace streamrel
