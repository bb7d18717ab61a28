// E26 — side-array construction strategies (the dominant cost of the
// bottleneck decomposition): the paper's from-scratch sweep vs the
// Gray-code incremental sweep vs Gray + monotone pruning vs the
// bit-parallel slab sweep, for both feasibility engines. Reports wall
// time, max-flow solver calls, the incremental bookkeeping counters,
// and the slab sweep's word-wide coverage; verifies the arrays are
// bitwise identical and the end-to-end reliabilities agree to 1e-12.
// With --json=FILE the results are also written as a schema-versioned
// bench_harness record for CI trend tracking.
//
// --threads N applies ONE thread policy to every strategy: N=1 (the
// default) runs all sweeps serially, N=0 lets the library pick, any
// other N caps the OpenMP pool — so the per-strategy comparison is
// always like for like.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.hpp"

#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/stopwatch.hpp"
#include "streamrel/util/table.hpp"
#include "streamrel/util/trace.hpp"

using namespace streamrel;

namespace {

std::uint64_t count_occurrences(const std::string& haystack,
                                const std::string& needle) {
  std::uint64_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

struct Row {
  std::string engine;
  double scratch_ms = 0.0;
  double gray_ms = 0.0;
  double pruned_ms = 0.0;
  double bit_ms = 0.0;
  std::uint64_t scratch_calls = 0;
  std::uint64_t gray_calls = 0;
  std::uint64_t pruned_calls = 0;
  std::uint64_t bit_calls = 0;
  std::uint64_t pruned_decisions = 0;
  std::uint64_t lanes_wordwise = 0;
  std::uint64_t scalar_residue = 0;
  bool identical = false;

  /// Fraction of per-lane decisions the slab kernels made without a
  /// scalar engine. 0 when the strategy delegated (polymatroid).
  double wordwise_coverage() const {
    const double total =
        static_cast<double>(lanes_wordwise + scalar_residue);
    return total > 0.0 ? static_cast<double>(lanes_wordwise) / total : 0.0;
  }
};

struct ThreadPolicy {
  bool parallel = false;
  ExecContext ctx;

  const ExecContext* context() const { return parallel ? &ctx : nullptr; }
};

SideArrayOptions strategy_options(FeasibilityMethod f, SideSweepStrategy s,
                                  bool pruning, const ThreadPolicy& policy) {
  SideArrayOptions o;
  o.feasibility = f;
  o.parallel = policy.parallel;
  o.sweep = s;
  o.monotone_pruning = pruning;
  return o;
}

Row run_engine(const std::string& name, FeasibilityMethod method,
               const SideProblem& side, const AssignmentSet& assignments,
               Capacity d, const ThreadPolicy& policy) {
  Row row;
  row.engine = name;
  Stopwatch sw;

  SideArrayStats scratch_stats;
  const auto scratch = build_side_array(
      side, assignments, d,
      strategy_options(method, SideSweepStrategy::kScratch, false, policy),
      &scratch_stats, policy.context());
  row.scratch_ms = sw.elapsed_ms();
  row.scratch_calls = scratch_stats.maxflow_calls();

  sw.reset();
  SideArrayStats gray_stats;
  const auto gray = build_side_array(
      side, assignments, d,
      strategy_options(method, SideSweepStrategy::kGrayIncremental, false,
                       policy),
      &gray_stats, policy.context());
  row.gray_ms = sw.elapsed_ms();
  row.gray_calls = gray_stats.maxflow_calls();

  sw.reset();
  SideArrayStats pruned_stats;
  const auto pruned = build_side_array(
      side, assignments, d,
      strategy_options(method, SideSweepStrategy::kGrayIncremental, true,
                       policy),
      &pruned_stats, policy.context());
  row.pruned_ms = sw.elapsed_ms();
  row.pruned_calls = pruned_stats.maxflow_calls();
  row.pruned_decisions = pruned_stats.pruned_decisions();

  sw.reset();
  SideArrayStats bit_stats;
  const auto bit_parallel = build_side_array(
      side, assignments, d,
      strategy_options(method, SideSweepStrategy::kBitParallel, false, policy),
      &bit_stats, policy.context());
  row.bit_ms = sw.elapsed_ms();
  row.bit_calls = bit_stats.maxflow_calls();
  row.lanes_wordwise = bit_stats.lanes_decided_wordwise();
  row.scalar_residue = bit_stats.scalar_residue();

  row.identical =
      scratch == gray && scratch == pruned && scratch == bit_parallel;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int side_links = static_cast<int>(args.get_int("side-links", 18));
  const int bottleneck = static_cast<int>(args.get_int("bottleneck", 2));
  const Capacity d = args.get_int("demand", 2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 17));
  const int threads = static_cast<int>(args.get_int("threads", 1));

  ThreadPolicy policy;
  policy.parallel = threads != 1;
  policy.ctx.max_threads = threads > 1 ? threads : 0;

  // A clustered instance whose SOURCE side carries `side_links` internal
  // links: nodes_s - 1 spanning-tree links plus the remainder as extras.
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = side_links / 2 + 1;
  params.extra_edges_s = side_links - (params.nodes_s - 1);
  params.nodes_t = 4;
  params.extra_edges_t = 1;
  params.bottleneck_links = bottleneck;
  params.bottleneck_caps = {1, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const FlowDemand demand{g.source, g.sink, d};
  const AssignmentSet forward =
      enumerate_assignments(g.net, partition, d, {AssignmentMode::kForwardOnly});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);

  std::cout << "E26: side-array sweep strategies, |E_side|="
            << side.view.num_edges() << " (2^" << side.view.num_edges()
            << " configurations), |D|=" << forward.size() << ", d=" << d
            << ", k=" << bottleneck << ", threads="
            << (threads == 1 ? "serial" : std::to_string(threads)) << "\n\n";

  std::vector<Row> rows;
  rows.push_back(run_engine("per_assignment", FeasibilityMethod::kPerAssignment,
                            side, forward, d, policy));
  rows.push_back(run_engine("polymatroid", FeasibilityMethod::kPolymatroid,
                            side, forward, d, policy));

  TextTable table({"engine", "scratch_ms", "gray_ms", "gray+prune_ms",
                   "bit_ms", "bit_x_prune", "scratch_calls", "bit_calls",
                   "coverage", "identical"});
  for (const Row& r : rows) {
    table.new_row()
        .add_cell(r.engine)
        .add_cell(r.scratch_ms, 2)
        .add_cell(r.gray_ms, 2)
        .add_cell(r.pruned_ms, 2)
        .add_cell(r.bit_ms, 2)
        .add_cell(r.pruned_ms / r.bit_ms, 2)
        .add_cell(r.scratch_calls)
        .add_cell(r.bit_calls)
        .add_cell(r.wordwise_coverage(), 4)
        .add_cell(r.identical ? "yes" : "NO");
  }
  table.print(std::cout);

  // End-to-end cross-check: the full decomposition must produce the same
  // reliability whichever sweep built the side arrays.
  BottleneckOptions scratch_opts;
  scratch_opts.side = strategy_options(FeasibilityMethod::kAuto,
                                       SideSweepStrategy::kScratch, false,
                                       policy);
  BottleneckOptions gray_opts;
  gray_opts.side =
      strategy_options(FeasibilityMethod::kAuto,
                       SideSweepStrategy::kGrayIncremental, true, policy);
  BottleneckOptions bit_opts;
  bit_opts.side = strategy_options(FeasibilityMethod::kAuto,
                                   SideSweepStrategy::kBitParallel, false,
                                   policy);
  const double r_scratch =
      reliability_bottleneck(g.net, demand, partition, scratch_opts)
          .reliability;
  const double r_gray =
      reliability_bottleneck(g.net, demand, partition, gray_opts).reliability;
  const double r_bit =
      reliability_bottleneck(g.net, demand, partition, bit_opts).reliability;
  const double delta = std::max(std::abs(r_scratch - r_gray),
                                std::abs(r_scratch - r_bit));
  std::cout << "\nreliability scratch=" << r_scratch << " gray=" << r_gray
            << " bit=" << r_bit << " |delta|=" << delta
            << (delta < 1e-12 ? " (ok)" : " (DRIFT)") << "\n";

  // Zero-copy regression guard: trace one decomposition run and count the
  // span markers. The side views must come from NetworkView construction
  // ("network_view" spans), never from a copied FlowNetwork
  // ("induced_subgraph" spans) — CI diffs these counts via bench_compare.
  Tracer::set_enabled(true);
  Tracer::clear();
  reliability_bottleneck(g.net, demand, partition, gray_opts);
  const std::string trace = Tracer::export_chrome_json();
  Tracer::set_enabled(false);
  const std::uint64_t subgraph_copies =
      count_occurrences(trace, "{\"name\": \"induced_subgraph\"");
  const std::uint64_t view_builds =
      count_occurrences(trace, "{\"name\": \"network_view\"");
  const bool zero_copy = subgraph_copies == 0 && view_builds > 0;
  std::cout << "decomposition side views: " << view_builds
            << " zero-copy builds, " << subgraph_copies
            << " FlowNetwork copies" << (zero_copy ? " (ok)" : " (COPYING)")
            << "\n";

  bench::BenchReport report("side_array_sweep");
  report.metric("side_links", static_cast<std::int64_t>(side.view.num_edges()))
      .metric("assignments", static_cast<std::uint64_t>(forward.size()))
      .metric("demand", static_cast<std::int64_t>(d))
      .metric("seed", seed)
      .metric("threads", static_cast<std::int64_t>(threads))
      .metric("reliability_delta", delta)
      .metric("trace.subgraph_copies", subgraph_copies)
      .metric("trace.view_builds", view_builds);
  for (const Row& r : rows) {
    report.metric(r.engine + ".scratch_ms", r.scratch_ms)
        .metric(r.engine + ".gray_ms", r.gray_ms)
        .metric(r.engine + ".gray_pruned_ms", r.pruned_ms)
        .metric(r.engine + ".bit_ms", r.bit_ms)
        .metric(r.engine + ".scratch_calls", r.scratch_calls)
        .metric(r.engine + ".gray_calls", r.gray_calls)
        .metric(r.engine + ".gray_pruned_calls", r.pruned_calls)
        .metric(r.engine + ".bit_calls", r.bit_calls)
        .metric(r.engine + ".pruned_decisions", r.pruned_decisions)
        .metric(r.engine + ".lanes_decided_wordwise", r.lanes_wordwise)
        .metric(r.engine + ".scalar_residue", r.scalar_residue)
        .metric(r.engine + ".speedup", r.scratch_ms / r.pruned_ms)
        .metric(r.engine + ".bit_speedup_vs_gray", r.pruned_ms / r.bit_ms)
        .metric(r.engine + ".wordwise_coverage", r.wordwise_coverage())
        .metric(r.engine + ".call_reduction",
                static_cast<double>(r.scratch_calls) /
                    static_cast<double>(r.pruned_calls))
        .metric(r.engine + ".identical", r.identical);
  }
  const bool json_ok = bench::write_if_requested(report, args);

  bool ok = json_ok && delta < 1e-12 && zero_copy;
  for (const Row& r : rows) ok = ok && r.identical;
  return ok ? 0 : 1;
}
