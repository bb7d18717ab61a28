// The bit-parallel slab sweep must be an exact drop-in for the paper's
// from-scratch procedure: bitwise-identical side arrays and fold
// distributions across kScratch / kGrayIncremental / kBitParallel on a
// large population of seeded graphs, full decision accounting
// (word-wide lanes + scalar residue == configurations x |D|), and a
// strictly smaller solver bill than scratch on non-trivial arrays.
// Also covers the BitSlabs primitives: the Gray-slab fill identity,
// gray_rank, slab/config form roundtrips, and pins the fold bitwise to
// its definition across index widths and probability extremes.

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

TEST(BitSlabs, FillMatchesThePerLaneDefinition) {
  const int edges = 10;
  BitSlabs slabs(edges);
  for (const Mask base : {Mask{0}, Mask{64}, Mask{128}, Mask{1} << 9,
                          (Mask{1} << 9) - 64}) {
    slabs.fill(base);
    for (int e = 0; e < edges; ++e) {
      for (int lane = 0; lane < 64; ++lane) {
        const Mask config = gray_code(base + static_cast<Mask>(lane));
        EXPECT_EQ(test_bit(slabs.word(e), lane), test_bit(config, e))
            << "base " << base << " edge " << e << " lane " << lane;
      }
    }
  }
}

TEST(BitSlabs, LowPatternIsTheBaseZeroSlab) {
  BitSlabs slabs(kMaxMaskBits);
  slabs.fill(0);
  for (int e = 0; e < kMaxMaskBits; ++e) {
    EXPECT_EQ(slabs.word(e), BitSlabs::low_pattern(e));
  }
  EXPECT_EQ(BitSlabs::low_pattern(6), 0u);  // gray codes < 64 use bits 0..5
}

TEST(BitSlabs, RejectsUnalignedBaseAndBadEdgeCounts) {
  EXPECT_THROW(BitSlabs(-1), std::invalid_argument);
  EXPECT_THROW(BitSlabs(kMaxMaskBits + 1), std::invalid_argument);
  BitSlabs slabs(4);
  EXPECT_THROW(slabs.fill(1), std::invalid_argument);
  EXPECT_THROW(slabs.fill(63), std::invalid_argument);
  EXPECT_NO_THROW(slabs.fill(0));
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

SideArrayOptions sweep_options(SideSweepStrategy sweep,
                               FeasibilityMethod f = FeasibilityMethod::kPerAssignment) {
  SideArrayOptions o;
  o.feasibility = f;
  o.parallel = false;
  o.sweep = sweep;
  o.monotone_pruning = true;
  return o;
}

void expect_same_distribution(const MaskDistribution& a,
                              const MaskDistribution& b, const char* what) {
  ASSERT_EQ(a.buckets.size(), b.buckets.size()) << what;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].first, b.buckets[i].first) << what;
    EXPECT_EQ(a.buckets[i].second, b.buckets[i].second) << what;  // bitwise
  }
  EXPECT_EQ(a.total, b.total) << what;
}

// The heart of the contract: on 200 seeded clustered graphs (sides from
// a handful of links — partial slabs — up to ~2^10 configurations),
// every strategy produces the SAME bytes, the slab sweep answers
// every (configuration, assignment) decision exactly once between its
// word-wide kernels and the scalar residue, and never solves more
// max-flows than the from-scratch sweep.
TEST(BitParallelSweep, MatchesScratchOn200SeededGraphs) {
  Xoshiro256 rng(20260807);
  int nontrivial = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ClusteredParams params;
    params.nodes_s = 3 + static_cast<int>(rng.uniform_below(4));
    params.nodes_t = 3 + static_cast<int>(rng.uniform_below(4));
    params.extra_edges_s = static_cast<int>(rng.uniform_below(4));
    params.extra_edges_t = static_cast<int>(rng.uniform_below(4));
    params.bottleneck_links = 1 + static_cast<int>(rng.uniform_below(3));
    params.bottleneck_caps = {1, 3};
    const GeneratedNetwork g = clustered_bottleneck(rng, params);
    const BottleneckPartition partition =
        partition_from_sides(g.net, g.source, g.sink, g.side_s);
    const Capacity d = rng.uniform_int(1, 3);

    for (const AssignmentMode mode :
         {AssignmentMode::kForwardOnly, AssignmentMode::kSigned}) {
      AssignmentSet assignments;
      try {
        assignments = enumerate_assignments(g.net, partition, d, {mode});
      } catch (const std::invalid_argument&) {
        continue;  // |D| guard tripped; irrelevant here
      }
      if (assignments.size() == 0) continue;

      for (const bool source_side : {true, false}) {
        const SideProblem side = make_side_problem(
            g.net, {g.source, g.sink, d}, partition, source_side);

        SideArrayStats scratch_stats;
        const std::vector<Mask> scratch = build_side_array(
            side, assignments, d,
            sweep_options(SideSweepStrategy::kScratch), &scratch_stats);
        SideArrayStats gray_stats;
        const std::vector<Mask> gray = build_side_array(
            side, assignments, d,
            sweep_options(SideSweepStrategy::kGrayIncremental), &gray_stats);
        SideArrayStats bit_stats;
        const std::vector<Mask> bit_parallel = build_side_array(
            side, assignments, d,
            sweep_options(SideSweepStrategy::kBitParallel), &bit_stats);

        ASSERT_EQ(scratch, gray)
            << "trial " << trial << " source_side " << source_side;
        ASSERT_EQ(scratch, bit_parallel)
            << "trial " << trial << " source_side " << source_side;

        // Full decision accounting: every (configuration, assignment)
        // pair is decided exactly once, word-wide or by the residue.
        const std::uint64_t decisions =
            static_cast<std::uint64_t>(scratch.size()) *
            static_cast<std::uint64_t>(assignments.size());
        EXPECT_EQ(bit_stats.lanes_decided_wordwise() +
                      bit_stats.scalar_residue(),
                  decisions)
            << "trial " << trial << " source_side " << source_side;
        EXPECT_LE(bit_stats.maxflow_calls(), scratch_stats.maxflow_calls());
        if (scratch.size() >= 64) ++nontrivial;

        // The fold is a pure function of (array, probabilities): every
        // strategy produces a bitwise identical distribution.
        const int m = side.view.num_edges();
        expect_same_distribution(
            bucket_side_array(side, slab_form(scratch, m)),
            bucket_side_array(side, slab_form(bit_parallel, m)),
            "fold(bit_parallel)");
      }
    }
  }
  EXPECT_GT(nontrivial, 50);  // the population exercises full slabs
}

TEST(BitParallelSweep, PolymatroidRequestDelegatesToGray) {
  Xoshiro256 rng(7);
  ClusteredParams params;
  params.nodes_s = 6;
  params.extra_edges_s = 3;
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
  const SideProblem side =
      make_side_problem(g.net, {g.source, g.sink, d}, partition, true);

  SideArrayStats bit_stats;
  const std::vector<Mask> bit_parallel = build_side_array(
      side, forward, d,
      sweep_options(SideSweepStrategy::kBitParallel,
                    FeasibilityMethod::kPolymatroid),
      &bit_stats);
  const std::vector<Mask> gray = build_side_array(
      side, forward, d,
      sweep_options(SideSweepStrategy::kGrayIncremental,
                    FeasibilityMethod::kPolymatroid));
  EXPECT_EQ(bit_parallel, gray);
  // The delegation really ran the Gray engine bank: no slab lanes.
  EXPECT_EQ(bit_stats.lanes_decided_wordwise(), 0u);
  EXPECT_EQ(bit_stats.scalar_residue(), 0u);
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
        build_side_array(side, forward, d,
                         sweep_options(SideSweepStrategy::kBitParallel),
                         &vec_stats);
    SideArrayStats slab_stats;
    const SlabMaskTable table = build_side_array_slab(
        side, forward, d, sweep_options(SideSweepStrategy::kBitParallel),
        &slab_stats);
    EXPECT_EQ(config_form(table), array);
    EXPECT_EQ(table.num_links, side.view.num_edges());
    // Same sweep underneath: the counters agree exactly.
    EXPECT_TRUE(
        vec_stats.telemetry.counters_equal(slab_stats.telemetry));
    EXPECT_EQ(slab_form(array, side.view.num_edges()), table);
  }
}

}  // namespace
}  // namespace streamrel
