// E26 — side-array construction (the dominant cost of the bottleneck
// decomposition): the production sweep (build_side_array: the
// certificate-closure sweep) against the paper's own procedure, one
// bounded max-flow per (configuration, assignment) through
// SideMaskEvaluator — the scratch oracle. Reports wall time, max-flow
// solver calls, the share of decisions filled in by closures, and the
// array's boundary (minimal realizing plus maximal failing
// configurations per assignment) with the sweep's queries per boundary
// configuration; verifies the arrays are bitwise identical and that the
// decomposition's
// reliability equals the one folded from the oracle's arrays, and exits
// nonzero unless that reliability lies strictly between 0 and 1 (at 0
// or 1 the cross-check compares constants and tests nothing).
// With --json=FILE the results are also written as a schema-versioned
// bench_harness record for CI trend tracking.
//
// --threads N: N=1 (the default) runs the sweep serially, N=0 lets the
// library pick, any other N caps the OpenMP pool. The oracle is serial
// in every case. Whatever N is, the sweep is also timed serially
// (max_threads 1) and on the library's default pool, best of three each,
// and reported as sweep_ms_serial / sweep_ms_pooled: informational, no
// check reads them.
//
// --seed (default 33) picks the clustered instance. Seed 33 gives
// 0 < R < 1 at every --side-links from 12 to 20; some seeds do not (at
// 20 links seed 17 has a sink cluster that carries one unit, so R = 0).

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

/// The paper's procedure: every (configuration, assignment) question
/// answered by its own bounded max-flow.
std::vector<Mask> scratch_oracle(const SideProblem& side,
                                 const AssignmentSet& assignments, Capacity d,
                                 std::uint64_t& maxflow_calls) {
  SideMaskEvaluator eval(side, assignments, d);
  std::vector<Mask> array(std::size_t{1} << side.view.num_edges());
  for (Mask c = 0; c < array.size(); ++c) array[c] = eval.realized(c);
  maxflow_calls = eval.maxflow_calls();
  return array;
}

/// Boundary size summed over assignments: configurations realizing
/// assignment j while no one-link-smaller one does, plus configurations
/// failing j while every one-link-larger one realizes it.
std::uint64_t boundary_size(const std::vector<Mask>& array, int links,
                            int assignments) {
  const Mask all = full_mask(assignments);
  std::uint64_t boundary = 0;
  for (Mask c = 0; c < array.size(); ++c) {
    Mask below = 0;
    Mask above = all;
    for (int e = 0; e < links; ++e) {
      const Mask n = array[c ^ bit(e)];
      if (test_bit(c, e)) {
        below |= n;
      } else {
        above &= n;
      }
    }
    boundary += static_cast<std::uint64_t>(
        popcount(array[c] & ~below) + popcount(all & ~array[c] & above));
  }
  return boundary;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int side_links = static_cast<int>(args.get_int("side-links", 18));
  const int bottleneck = static_cast<int>(args.get_int("bottleneck", 2));
  const Capacity d = args.get_int("demand", 2);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 33));
  const int threads = static_cast<int>(args.get_int("threads", 1));

  ExecContext ctx;
  ctx.max_threads = threads;

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

  std::cout << "E26: side-array sweep vs scratch oracle, |E_side|="
            << side.view.num_edges() << " (2^" << side.view.num_edges()
            << " configurations), |D|=" << forward.size() << ", d=" << d
            << ", k=" << bottleneck << ", threads="
            << (threads == 1 ? "serial" : std::to_string(threads)) << "\n\n";

  Stopwatch sw;
  std::uint64_t scratch_calls = 0;
  const std::vector<Mask> scratch =
      scratch_oracle(side, forward, d, scratch_calls);
  const double scratch_ms = sw.elapsed_ms();

  sw.reset();
  SideArrayStats stats;
  const SlabMaskTable sweep_table =
      build_side_array(side, forward, d, &stats, &ctx);
  const double sweep_ms = sw.elapsed_ms();
  const std::vector<Mask> sweep = config_form(sweep_table);

  // Serial against pooled at the same size, best of three each.
  const auto best_sweep_ms = [&](const ExecContext& exec) {
    double best = 0.0;
    for (int run = 0; run < 3; ++run) {
      sw.reset();
      build_side_array(side, forward, d, nullptr, &exec);
      const double ms = sw.elapsed_ms();
      if (run == 0 || ms < best) best = ms;
    }
    return best;
  };
  ExecContext serial_ctx;
  serial_ctx.max_threads = 1;
  const double sweep_ms_serial = best_sweep_ms(serial_ctx);
  const double sweep_ms_pooled = best_sweep_ms(ExecContext{});

  const bool identical = scratch == sweep;
  const double decided = static_cast<double>(stats.lanes_decided_wordwise() +
                                             stats.scalar_residue());
  const double coverage =
      decided > 0.0
          ? static_cast<double>(stats.lanes_decided_wordwise()) / decided
          : 0.0;
  const double speedup = scratch_ms / sweep_ms;
  const std::uint64_t boundary =
      boundary_size(scratch, side.view.num_edges(), forward.size());
  const double queries_per_boundary =
      boundary > 0 ? static_cast<double>(stats.scalar_residue()) /
                         static_cast<double>(boundary)
                   : 0.0;

  TextTable table({"scratch_ms", "sweep_ms", "speedup", "scratch_calls",
                   "sweep_calls", "boundary", "calls/boundary", "coverage",
                   "identical"});
  table.new_row()
      .add_cell(scratch_ms, 2)
      .add_cell(sweep_ms, 2)
      .add_cell(speedup, 2)
      .add_cell(scratch_calls)
      .add_cell(stats.maxflow_calls())
      .add_cell(boundary)
      .add_cell(queries_per_boundary, 3)
      .add_cell(coverage, 4)
      .add_cell(identical ? "yes" : "NO");
  table.print(std::cout);
  std::cout << "sweep best of 3: serial " << sweep_ms_serial
            << " ms, default pool " << sweep_ms_pooled << " ms\n";

  // End-to-end cross-check: the decomposition (kAuto assignments, the
  // sink side swept too) against the same accumulation over arrays the
  // oracle built. Identical arrays give an identical reliability.
  const double r_sweep =
      reliability_bottleneck(g.net, demand, partition).reliability;
  BottleneckArtifacts oracle_artifacts =
      build_bottleneck_artifacts(g.net, demand, partition);
  std::uint64_t unused_calls = 0;
  oracle_artifacts.array_s = slab_form(
      scratch_oracle(oracle_artifacts.side_s, oracle_artifacts.assignments,
                     d, unused_calls),
      oracle_artifacts.side_s.view.num_edges());
  oracle_artifacts.array_t = slab_form(
      scratch_oracle(oracle_artifacts.side_t, oracle_artifacts.assignments,
                     d, unused_calls),
      oracle_artifacts.side_t.view.num_edges());
  const double r_scratch =
      accumulate_bottleneck(oracle_artifacts,
                            gather_bottleneck_probabilities(g.net, partition,
                                                            oracle_artifacts))
          .reliability;
  const double delta = std::abs(r_scratch - r_sweep);
  const bool r_interior = r_sweep > 0.0 && r_sweep < 1.0;
  std::cout << "\nreliability scratch=" << r_scratch << " sweep=" << r_sweep
            << " |delta|=" << delta << (delta == 0.0 ? " (ok)" : " (DRIFT)")
            << (r_interior ? "" : " (R NOT IN (0,1): the check is vacuous)")
            << "\n";

  // Zero-copy regression guard: trace one decomposition run and count the
  // span markers. The side views must come from NetworkView construction
  // ("network_view" spans) — CI diffs the count via bench_compare.
  Tracer::set_enabled(true);
  Tracer::clear();
  reliability_bottleneck(g.net, demand, partition);
  const std::string trace = Tracer::export_chrome_json();
  Tracer::set_enabled(false);
  const std::uint64_t view_builds =
      count_occurrences(trace, "{\"name\": \"network_view\"");
  const bool zero_copy = view_builds > 0;
  std::cout << "decomposition side views: " << view_builds
            << " zero-copy builds" << (zero_copy ? " (ok)" : " (NONE)")
            << "\n";

  // Metric keys keep the per_assignment. prefix of earlier records, so
  // bench_compare still diffs the sweep's wall time across commits.
  bench::BenchReport report("side_array_sweep");
  report.metric("side_links", static_cast<std::int64_t>(side.view.num_edges()))
      .metric("assignments", static_cast<std::uint64_t>(forward.size()))
      .metric("demand", static_cast<std::int64_t>(d))
      .metric("seed", seed)
      .metric("threads", static_cast<std::int64_t>(threads))
      .metric("reliability", r_sweep)
      .metric("reliability_delta", delta)
      .metric("trace.view_builds", view_builds)
      .metric("per_assignment.scratch_ms", scratch_ms)
      .metric("per_assignment.bit_ms", sweep_ms)
      .metric("sweep_ms_serial", sweep_ms_serial)
      .metric("sweep_ms_pooled", sweep_ms_pooled)
      .metric("per_assignment.scratch_calls", scratch_calls)
      .metric("per_assignment.bit_calls", stats.maxflow_calls())
      .metric("per_assignment.lanes_decided_wordwise",
              stats.lanes_decided_wordwise())
      .metric("per_assignment.scalar_residue", stats.scalar_residue())
      .metric("per_assignment.bit_speedup_vs_scratch", speedup)
      .metric("per_assignment.wordwise_coverage", coverage)
      .metric("per_assignment.call_reduction",
              static_cast<double>(scratch_calls) /
                  static_cast<double>(stats.maxflow_calls()))
      .metric("per_assignment.identical", identical)
      .metric("boundary_size", boundary)
      .metric("queries_per_boundary", queries_per_boundary);
  const bool json_ok = bench::write_if_requested(report, args);

  return json_ok && identical && delta == 0.0 && r_interior && zero_copy ? 0
                                                                         : 1;
}
