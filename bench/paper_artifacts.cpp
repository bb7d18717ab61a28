// Regenerates every worked example, table, and figure of the paper
// (experiment rows E1-E8 in DESIGN.md / EXPERIMENTS.md). Run without
// arguments to print everything, or pass --e1 ... --e8 for one artifact.

#include <iostream>
#include <string>

#include "bench_harness.hpp"
#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/table.hpp"

namespace streamrel {
namespace {

std::string usage_string(const Assignment& a) {
  std::string out = "(";
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(a.usage[i]);
  }
  return out + ")";
}

std::string mask_to_assignments(Mask m, const AssignmentSet& set) {
  std::string out = "{";
  bool first = true;
  for (int j = 0; j < set.size(); ++j) {
    if (!test_bit(m, j)) continue;
    if (!first) out += ", ";
    first = false;
    out += usage_string(set.assignments[static_cast<std::size_t>(j)]);
  }
  return out + "}";
}

void e1_naive_method() {
  std::cout << "=== E1 (Fig. 1): naive calculation of the reliability ===\n";
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const auto result = reliability_naive(g.net, demand);
  std::cout << "graph: " << g.net.summary() << ", demand d = 2\n"
            << "failure configurations examined: " << result.configurations()
            << " (= 2^|E|)\nmax-flow computations: " << result.maxflow_calls()
            << "\nreliability = " << format_double(result.reliability, 12)
            << "\n\n";
}

void e2_bridge() {
  std::cout << "=== E2 (Fig. 2, Eq. 1): graph with bridge e9 ===\n";
  const GeneratedNetwork g = make_fig2_bridge_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 1};
  const double eq1 = reliability_bridge_formula(g.net, demand, 8);
  const double naive = reliability_naive(g.net, demand).reliability;
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const double decomposed =
      reliability_bottleneck(g.net, demand, partition).reliability;
  TextTable t({"method", "reliability"});
  t.new_row().add_cell("Equation (1): r(Gs)(1-p(e*))r(Gt)").add_cell(eq1, 12);
  t.new_row().add_cell("bottleneck decomposition (k=1)").add_cell(decomposed,
                                                                  12);
  t.new_row().add_cell("naive 2^|E| enumeration").add_cell(naive, 12);
  t.print(std::cout);
  std::cout << "\n";
}

void e3_example1() {
  std::cout << "=== E3 (Example 1): assignments for d=5, c=(3,3,3) ===\n";
  FlowNetwork net(2);
  for (int i = 0; i < 3; ++i) net.add_undirected_edge(0, 1, 3, 0.1);
  const BottleneckPartition partition =
      partition_from_sides(net, 0, 1, {true, false});
  const AssignmentSet set = enumerate_assignments(
      net, partition, 5, {AssignmentMode::kForwardOnly});
  std::cout << "|D| = " << set.size() << "\nD = { ";
  for (int j = 0; j < set.size(); ++j) {
    if (j > 0) std::cout << ", ";
    std::cout << usage_string(set.assignments[static_cast<std::size_t>(j)]);
  }
  std::cout << " }\n\n";
}

void e4_side_array() {
  std::cout << "=== E4 (Fig. 3 / Example 2): the side-array data structure "
               "===\n";
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet set = enumerate_assignments(g.net, partition, 2, {});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);
  const std::vector<Mask> array = config_form(build_side_array(side, set, 2));
  std::cout << "source side G_s: " << side.view.num_nodes() << " nodes, "
            << side.view.num_edges() << " edges, array of 2^"
            << side.view.num_edges() << " = " << array.size()
            << " elements, each a |D| = " << set.size() << "-bit value\n";
  TextTable t({"config (alive mask)", "bits", "realized assignments"});
  for (Mask config : {Mask{0b11111}, Mask{0b01101}, Mask{0b00101},
                      Mask{0b00011}, Mask{0}}) {
    std::string bits;
    for (int j = set.size() - 1; j >= 0; --j) {
      bits += test_bit(array[static_cast<std::size_t>(config)], j) ? '1' : '0';
    }
    t.new_row()
        .add_cell(std::to_string(config))
        .add_cell(bits)
        .add_cell(mask_to_assignments(array[static_cast<std::size_t>(config)],
                                      set));
  }
  t.print(std::cout);
  std::cout << "\n";
}

void e5_fig4() {
  std::cout << "=== E5 (Fig. 4 / Example 3): the two-bottleneck graph ===\n";
  const GeneratedNetwork g = make_fig4_graph(0.2);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet set = enumerate_assignments(g.net, partition, 2, {});
  std::cout << "graph: " << g.net.summary()
            << "; bottleneck links e1 = edge 7, e2 = edge 8 (capacity 2 "
               "each)\n"
            << "admits d = 2: "
            << (max_flow(g.net, g.source, g.sink) >= 2 ? "yes" : "no")
            << "\nD = " << mask_to_assignments(full_mask(set.size()), set)
            << "\n";
  const double decomposed =
      reliability_bottleneck(g.net, demand, partition).reliability;
  const double naive = reliability_naive(g.net, demand).reliability;
  std::cout << "decomposition = " << format_double(decomposed, 12)
            << ", naive = " << format_double(naive, 12) << "\n\n";
}

void e6_fig5() {
  std::cout << "=== E6 (Fig. 5): three failure configurations of G_s ===\n";
  const GeneratedNetwork g = make_fig4_graph(0.1);
  const FlowDemand demand{g.source, g.sink, 2};
  const BottleneckPartition partition =
      partition_from_sides(g.net, g.source, g.sink, g.side_s);
  const AssignmentSet set = enumerate_assignments(g.net, partition, 2, {});
  const SideProblem side = make_side_problem(g.net, demand, partition, true);
  const std::vector<Mask> array = config_form(build_side_array(side, set, 2));
  const Fig5Configs configs = fig5_source_side_configs();
  TextTable t({"configuration", "alive side links", "realized assignments"});
  const char* names[] = {"(a)", "(b)", "(c)"};
  const Mask masks[] = {configs.a, configs.b, configs.c};
  for (int i = 0; i < 3; ++i) {
    std::string alive;
    for (int b : bits_of(masks[i])) {
      alive += 'e';
      alive += std::to_string(b);
      alive += ' ';
    }
    t.new_row()
        .add_cell(names[i])
        .add_cell(alive)
        .add_cell(mask_to_assignments(
            array[static_cast<std::size_t>(masks[i])], set));
  }
  t.print(std::cout);
  std::cout << "\n";
}

void e7_example5() {
  std::cout << "=== E7 (Def. 1, Examples 4-5): supporting subsets ===\n";
  AssignmentSet set;
  set.assignments = {Assignment{{1, 2, 0}}, Assignment{{2, 1, 0}},
                     Assignment{{1, 1, 1}}, Assignment{{0, 2, 1}},
                     Assignment{{2, 0, 1}}};
  TextTable t({"alive bottleneck subset", "supported assignments D_E''"});
  for (Mask alive = 0; alive < 8; ++alive) {
    std::string subset = "{";
    for (int b : bits_of(alive)) {
      if (subset.size() > 1) subset += ",";
      subset += 'e';
      subset += std::to_string(b + 1);
    }
    subset += "}";
    t.new_row().add_cell(subset).add_cell(
        mask_to_assignments(set.supported_by(alive), set));
  }
  t.print(std::cout);
  std::cout << "\n";
}

void e8_example6() {
  std::cout << "=== E8 (Example 6 / Table I): inclusion-exclusion "
               "accumulation ===\n";
  // Table I assignment realizations with concrete probabilities.
  const double pc[8] = {0.1, 0.2, 0.3, 0.4, 0.15, 0.25, 0.35, 0.25};
  MaskDistribution gs;
  gs.buckets = {{mask_of({0}), pc[0]},
                {mask_of({1}), pc[1] + pc[3]},
                {mask_of({0, 1}), pc[2]}};
  gs.total = 1.0;
  MaskDistribution gt;
  gt.buckets = {{mask_of({0, 1}), pc[4]},
                {mask_of({1}), pc[5]},
                {mask_of({0}), pc[6]},
                {0, pc[7]}};
  gt.total = 1.0;
  const double p_b1 = (pc[0] + pc[2]) * (pc[4] + pc[6]);
  const double p_b2 = (pc[1] + pc[2] + pc[3]) * (pc[4] + pc[5]);
  const double p_b1b2 = pc[2] * pc[4];
  std::cout << "p_{b1}      = (p(c1)+p(c3))(p(c5)+p(c7)) = "
            << format_double(p_b1, 12) << "\n"
            << "p_{b2}      = (p(c2)+p(c3)+p(c4))(p(c5)+p(c6)) = "
            << format_double(p_b2, 12) << "\n"
            << "p_{b1,b2}   = p(c3)p(c5) = " << format_double(p_b1b2, 12)
            << "\n"
            << "r_{E''}     = p_{b1}+p_{b2}-p_{b1,b2} = "
            << format_double(p_b1 + p_b2 - p_b1b2, 12) << "\n";
  TextTable t({"strategy", "r_{E''}"});
  t.new_row()
      .add_cell("paper inclusion-exclusion")
      .add_cell(joint_success_probability(
                    gs, gt, mask_of({0, 1}),
                    AccumulationStrategy::kPaperInclusionExclusion),
                12);
  t.new_row().add_cell("zeta transform")
      .add_cell(joint_success_probability(gs, gt, mask_of({0, 1}),
                                          AccumulationStrategy::kZetaTransform),
                12);
  t.new_row().add_cell("bucket product")
      .add_cell(joint_success_probability(gs, gt, mask_of({0, 1}),
                                          AccumulationStrategy::kBucketProduct),
                12);
  t.print(std::cout);
  std::cout << "\n";
}

}  // namespace
}  // namespace streamrel

int main(int argc, char** argv) {
  using namespace streamrel;
  const CliArgs args(argc, argv);
  const bool all = !args.has("e1") && !args.has("e2") && !args.has("e3") &&
                   !args.has("e4") && !args.has("e5") && !args.has("e6") &&
                   !args.has("e7") && !args.has("e8");
  if (all || args.has("e1")) e1_naive_method();
  if (all || args.has("e2")) e2_bridge();
  if (all || args.has("e3")) e3_example1();
  if (all || args.has("e4")) e4_side_array();
  if (all || args.has("e5")) e5_fig4();
  if (all || args.has("e6")) e6_fig5();
  if (all || args.has("e7")) e7_example5();
  if (all || args.has("e8")) e8_example6();
  bench::BenchReport record("paper_artifacts");
  record.metric("e1", all || args.has("e1"))
      .metric("e2", all || args.has("e2"))
      .metric("e3", all || args.has("e3"))
      .metric("e4", all || args.has("e4"))
      .metric("e5", all || args.has("e5"))
      .metric("e6", all || args.has("e6"))
      .metric("e7", all || args.has("e7"))
      .metric("e8", all || args.has("e8"));
  const bool json_ok = bench::write_if_requested(record, args);
  return json_ok ? 0 : 1;
}
