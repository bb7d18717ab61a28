#include "streamrel/core/side_array.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/dinic.hpp"
#include "streamrel/util/stats.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

SideProblem make_side_problem(std::shared_ptr<const CompiledNetwork> snapshot,
                              const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side) {
  if (!snapshot->valid_node(demand.source) ||
      !snapshot->valid_node(demand.sink)) {
    throw std::invalid_argument("demand endpoints out of range");
  }
  if (demand.source == demand.sink) {
    throw std::invalid_argument("demand source equals sink");
  }
  if (demand.rate <= 0) {
    throw std::invalid_argument("demand rate must be positive");
  }
  SideProblem side;
  side.is_source_side = source_side;

  std::vector<bool> in_side(partition.side_s);
  if (!source_side) in_side.flip();
  side.view = NetworkView(std::move(snapshot), in_side);
  if (!side.view.fits_mask()) {
    throw std::invalid_argument(
        "side component exceeds 63 links; pick a more balanced partition");
  }

  const CompiledNetwork& net = side.view.snapshot();
  const NodeId anchor_orig = source_side ? demand.source : demand.sink;
  side.anchor = side.view.view_node(anchor_orig);
  if (side.anchor == kInvalidNode) {
    throw std::invalid_argument("demand endpoint not on its side");
  }
  side.endpoints.reserve(partition.crossing_edges.size());
  for (EdgeId id : partition.crossing_edges) {
    const NodeId u = net.edge_u(id);
    const NodeId orig =
        partition.side_s[static_cast<std::size_t>(u)] == source_side
            ? u
            : net.edge_v(id);
    side.endpoints.push_back(side.view.view_node(orig));
  }
  return side;
}

SideProblem make_side_problem(const FlowNetwork& net, const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side) {
  return make_side_problem(net.compile(), demand, partition, source_side);
}

namespace {

// Cooperative stop poll. `aborted` is shared across the assignments of
// one sweep so one observing thread stops them all at their next poll.
bool poll_stop(const ExecContext* ctx, std::atomic<bool>& aborted) {
  if (!ctx) return false;
  if (aborted.load(std::memory_order_relaxed)) return true;
  if (!ctx->should_stop()) return false;
  aborted.store(true, std::memory_order_relaxed);
  return true;
}

// Shared super-arc layout: index 0 is the anchor arc, then per crossing
// edge i an "in" arc S0 -> endpoint (index 1 + 2i) and an "out" arc
// endpoint -> T1 (index 2 + 2i). All arcs start at capacity 0;
// apply_assignment_plan sets the pristine capacities, which take effect
// at the next reset.
struct SuperTerminals {
  NodeId source = kInvalidNode;
  NodeId sink = kInvalidNode;
};

SuperTerminals add_side_super_arcs(ConfigResidual& residual,
                                   const SideProblem& side) {
  SuperTerminals t;
  t.source = residual.add_super_node();
  t.sink = residual.add_super_node();
  if (side.is_source_side) {
    residual.add_super_arc(t.source, side.anchor, 0, 0);
  } else {
    residual.add_super_arc(side.anchor, t.sink, 0, 0);
  }
  for (NodeId endpoint : side.endpoints) {
    residual.add_super_arc(t.source, endpoint, 0, 0);  // in arc
    residual.add_super_arc(endpoint, t.sink, 0, 0);    // out arc
  }
  return t;
}

// Resolved super-arc capacities for one assignment: what each arc of the
// add_side_super_arcs layout is set to, plus the flow total that signals
// feasibility.
struct SuperArcPlan {
  Capacity anchor_cap = 0;       ///< super arc 0 (S0 -> anchor or mirror)
  std::vector<Capacity> in_cap;  ///< per endpoint: S0 -> endpoint
  std::vector<Capacity> out_cap; ///< per endpoint: endpoint -> T1
  Capacity required = 0;         ///< d + backflow: the feasibility bound
};

SuperArcPlan plan_assignment_arcs(const SideProblem& side, const Assignment& a,
                                  Capacity d) {
  SuperArcPlan plan;
  plan.anchor_cap = d;
  plan.in_cap.resize(a.usage.size());
  plan.out_cap.resize(a.usage.size());
  Capacity backflow = 0;
  for (std::size_t i = 0; i < a.usage.size(); ++i) {
    const Capacity u = a.usage[i];
    // Source side: positive usage leaves via the endpoint (out arc);
    // negative usage enters there. Sink side is the mirror image.
    const bool leaves = side.is_source_side ? (u > 0) : (u < 0);
    const Capacity mag = u > 0 ? u : -u;
    plan.in_cap[i] = leaves ? 0 : mag;
    plan.out_cap[i] = leaves ? mag : 0;
    if (u < 0) backflow -= u;
  }
  plan.required = d + backflow;
  return plan;
}

void apply_assignment_plan(ConfigResidual& residual,
                           const SuperArcPlan& plan) {
  residual.set_super_arc(0, plan.anchor_cap, 0);
  for (std::size_t i = 0; i < plan.in_cap.size(); ++i) {
    residual.set_super_arc(1 + 2 * i, plan.in_cap[i], 0);
    residual.set_super_arc(2 + 2 * i, plan.out_cap[i], 0);
  }
}

// ---------------------------------------------------------------------------
// Certificate-closure sweep.
//
// Feasibility of one assignment is monotone in the alive set, so its
// column of the array is fixed by its boundary (minimal realizing and
// maximal failing configurations). The sweep keeps two bitsets over the
// configurations, `yes` and `no`, and asks the solver only about
// configurations neither holds. Each answer carries a certificate:
//
//   YES — the flow's support S (alive edges carrying net flow) realizes
//         the assignment wherever S stays alive: OR the up-set of S;
//   NO  — the dead edges D crossing the residual-reachable cut (a min
//         cut below the requirement) keep it failing wherever all of D
//         stays dead: OR the down-set of full & ~D.
//
// Queries go by popcount level from m down to 0, so every strict
// superset of a queried configuration is decided already; a NO answer
// there means all of them are YES, i.e. every queried NO is a maximal
// failing configuration.

// Configurations are indexed as word w (the high m - 6 edges) and lane l
// (the low six edges): c = w * 64 + l.
struct LaneTables {
  std::array<std::uint64_t, 64> supersets{};  ///< [x]: lanes l with l ⊇ x
  std::array<std::uint64_t, 64> subsets{};    ///< [x]: lanes l with l ⊆ x
  std::array<std::uint64_t, 7> by_popcount{}; ///< [k]: lanes of popcount k
};

constexpr LaneTables kLanes = [] {
  LaneTables t;
  for (unsigned x = 0; x < 64; ++x) {
    for (unsigned l = 0; l < 64; ++l) {
      if ((l & x) == x) t.supersets[x] |= bit(static_cast<int>(l));
      if ((l & ~x) == 0) t.subsets[x] |= bit(static_cast<int>(l));
    }
    t.by_popcount[static_cast<std::size_t>(std::popcount(x))] |=
        bit(static_cast<int>(x));
  }
  return t;
}();

/// Side edges carrying net flow after a solve at `alive`: the YES
/// certificate.
Mask flow_support(const ConfigResidual& residual, Mask alive) {
  Mask support = 0;
  for (Mask rest = alive; rest != 0; rest &= rest - 1) {
    const int e = lowest_bit(rest);
    if (residual.edge_net_flow(e) != 0) support |= bit(e);
  }
  return support;
}

/// Dead side edges crossing the cut between the nodes residual-reachable
/// from `source` and the rest, after a solve at `alive` that fell short:
/// the NO certificate. Only orientations with pristine capacity count:
/// both for undirected links, u -> v for directed ones.
Mask dead_cut_edges(const ConfigResidual& residual, NodeId source,
                    Mask alive) {
  const std::vector<bool> reach = residual.graph().residual_reachable(source);
  Mask cut = 0;
  for (EdgeId e = 0; e < residual.num_edges(); ++e) {
    if (test_bit(alive, e)) continue;
    const bool ru = reach[static_cast<std::size_t>(residual.edge_u(e))];
    const bool rv = reach[static_cast<std::size_t>(residual.edge_v(e))];
    if (residual.edge_directed(e) ? (ru && !rv) : (ru != rv)) cut |= bit(e);
  }
  return cut;
}

struct ClosureCounters {
  std::uint64_t queries = 0;             ///< bounded max-flow solves
  std::uint64_t certificate_misses = 0;  ///< certificates missing their c
};

/// One assignment's column as a configuration bitset, plus what it cost.
/// `done` is false when the sweep was stopped part way.
struct ClosureColumn {
  std::vector<std::uint64_t> yes;
  ClosureCounters counters;
  bool done = false;
};

/// Sweeps one assignment's column; `progress_share` is its part of the
/// side's progress total.
ClosureColumn close_assignment(const SideProblem& side,
                               const SuperArcPlan& plan,
                               ConfigResidual& residual,
                               const SuperTerminals& terminals,
                               DinicSolver& solver,
                               std::uint64_t progress_share,
                               const ExecContext* ctx,
                               std::atomic<bool>& aborted) {
  const int m = side.view.num_edges();
  const Mask full = full_mask(m);
  const std::size_t words = m > 6 ? std::size_t{1} << (m - 6) : 1;
  const std::uint64_t valid =
      m >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1 << m)) - 1;
  ClosureColumn column;
  column.yes.assign(words, 0);
  std::vector<std::uint64_t> no(words, 0);
  std::vector<std::uint64_t>& yes = column.yes;
  ClosureCounters& counters = column.counters;

  apply_assignment_plan(residual, plan);
  const auto query = [&](Mask c) {
    residual.reset(c);
    ++counters.queries;
    const bool admits = solver.solve(residual.graph(), terminals.source,
                                     terminals.sink,
                                     plan.required) >= plan.required;
    std::vector<std::uint64_t>& decided = admits ? yes : no;
    if (admits) {
      const Mask support = flow_support(residual, c);
      const std::uint64_t lanes = kLanes.supersets[support & 63] & valid;
      const Mask high = support >> 6;
      for (Mask w = high; w < words; w = (w + 1) | high) yes[w] |= lanes;
    } else {
      const Mask keep = full & ~dead_cut_edges(residual, terminals.source, c);
      const std::uint64_t lanes = kLanes.subsets[keep & 63];
      const Mask high = keep >> 6;
      for (Mask w = high;; w = (w - 1) & high) {
        no[w] |= lanes;
        if (w == 0) break;
      }
    }
    // Both certificates cover their own configuration. Should a faulty
    // one miss it, the verdict decides c anyway, so every query makes
    // progress.
    std::uint64_t& word = decided[c >> 6];
    if (!test_bit(word, static_cast<int>(c & 63))) {
      word |= bit(static_cast<int>(c & 63));
      ++counters.certificate_misses;
    }
  };

  ProgressMarker progress(exec_progress(ctx));
  const double total = std::ldexp(1.0, m);
  double level_size = 1.0;  // C(m, k)
  double swept = 0.0;       // configurations of popcount >= k
  for (int k = m; k >= 0; --k) {
    if (poll_stop(ctx, aborted)) return column;
    for (std::size_t w = 0; w < words; ++w) {
      const int low = k - std::popcount(w);
      if (low < 0 || low > 6) continue;
      std::uint64_t open = kLanes.by_popcount[static_cast<std::size_t>(low)] &
                           valid & ~(yes[w] | no[w]);
      while (open != 0) {
        query((static_cast<Mask>(w) << 6) |
              static_cast<Mask>(lowest_bit(open)));
        if ((counters.queries & (ExecContext::kPollStride - 1)) == 0 &&
            poll_stop(ctx, aborted)) {
          return column;
        }
        open &= ~(yes[w] | no[w]);
      }
    }
    swept += level_size;
    level_size = level_size * k / (m - k + 1);
    progress.at(static_cast<std::uint64_t>(
        static_cast<double>(progress_share) * swept / total));
  }
  progress.at(progress_share);
  column.done = true;
  return column;
}

}  // namespace

std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   SideArrayStats* stats,
                                   const ExecContext* ctx) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
  const int m = side.view.num_edges();
  const Mask total = Mask{1} << m;
  const int n = assignments.size();

  TraceSpan sweep_span("build_side_array", "sweep");
  sweep_span.arg("side", side.is_source_side ? "s" : "t")
      .arg("links", static_cast<std::int64_t>(m))
      .arg("configs", static_cast<std::uint64_t>(total));

  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(static_cast<std::uint64_t>(total));
  }

  std::vector<Mask> array(static_cast<std::size_t>(total), 0);
  std::atomic<bool> aborted{false};
  std::vector<ClosureCounters> counters(static_cast<std::size_t>(n));
  std::vector<double> assignment_ms(static_cast<std::size_t>(n), 0.0);
  const auto t0 = std::chrono::steady_clock::now();

  // One assignment per task. Each column is a pure function of its
  // assignment, so the array and the counters (merged in assignment
  // order below) do not depend on the thread count. Sides under 1024
  // configurations stay on the calling thread.
  const int threads =
      total < 1024 ? 1 : std::max(1, std::min(exec_resolved_threads(ctx), n));
#ifdef _OPENMP
#pragma omp parallel num_threads(threads) if (threads > 1)
#endif
  {
    ConfigResidual residual(side.view);
    const SuperTerminals terminals = add_side_super_arcs(residual, side);
    DinicSolver solver;
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
    for (int j = 0; j < n; ++j) {
      if (aborted.load(std::memory_order_relaxed)) continue;
      const auto j0 = std::chrono::steady_clock::now();
      const auto ju = static_cast<std::size_t>(j);
      const std::uint64_t share = static_cast<std::uint64_t>(
          total / static_cast<Mask>(n) +
          (static_cast<Mask>(j) < total % static_cast<Mask>(n) ? 1 : 0));
      const ClosureColumn column = close_assignment(
          side, plan_assignment_arcs(side, assignments.assignments[ju],
                                     demand_rate),
          residual, terminals, solver, share, ctx, aborted);
      counters[ju] = column.counters;
      if (column.done) {
#ifdef _OPENMP
#pragma omp critical(side_array_fill)
#endif
        for (std::size_t w = 0; w < column.yes.size(); ++w) {
          for (std::uint64_t rest = column.yes[w]; rest != 0;
               rest &= rest - 1) {
            array[(w << 6) | static_cast<std::size_t>(lowest_bit(rest))] |=
                bit(j);
          }
        }
      }
      assignment_ms[ju] = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - j0)
                              .count();
    }
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw ExecInterrupted{ctx->stop_status()};
  }
  if (stats) {
    ClosureCounters sum;
    for (const ClosureCounters& c : counters) {
      sum.queries += c.queries;
      sum.certificate_misses += c.certificate_misses;
    }
    Telemetry& telemetry = stats->telemetry;
    // Every query is one bounded solve, the scalar residue of the sweep;
    // every other (configuration, assignment) bit came from a closure.
    telemetry.counter(telemetry_keys::kMaxflowCalls) += sum.queries;
    telemetry.counter(telemetry_keys::kScalarResidue) += sum.queries;
    telemetry.counter(telemetry_keys::kLanesWordwise) +=
        static_cast<std::uint64_t>(total) * static_cast<std::uint64_t>(n) -
        sum.queries;
    // Only a faulty certificate creates this series.
    if (sum.certificate_misses != 0) {
      telemetry.counter(telemetry_keys::kCertificateMisses) +=
          sum.certificate_misses;
    }
    // Wall clock of the whole sweep; the per-assignment sum is the CPU
    // view (see Telemetry::merge_parallel for the same rule).
    double cpu = 0.0;
    for (double t : assignment_ms) cpu += t;
    telemetry.timer_ms("sweep") += std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count();
    telemetry.timer_ms("sweep_cpu") += cpu;
  }
  return array;
}

SlabMaskTable build_side_array_slab(const SideProblem& side,
                                    const AssignmentSet& assignments,
                                    Capacity demand_rate,
                                    SideArrayStats* stats,
                                    const ExecContext* ctx) {
  return slab_form(build_side_array(side, assignments, demand_rate, stats, ctx),
                   side.view.num_edges());
}

// The paper's scalar procedure: one reset + bounded solve per question.
struct SideMaskEvaluator::Impl {
  Impl(const SideProblem& problem, const AssignmentSet& assignments,
       Capacity d)
      : side(&problem),
        set(&assignments),
        rate(d),
        residual(problem.view),
        terminals(add_side_super_arcs(residual, problem)) {}

  const SideProblem* side;
  const AssignmentSet* set;
  Capacity rate;
  ConfigResidual residual;
  DinicSolver solver;
  SuperTerminals terminals;
};

SideMaskEvaluator::SideMaskEvaluator(const SideProblem& side,
                                     const AssignmentSet& assignments,
                                     Capacity demand_rate)
    : impl_(std::make_unique<Impl>(side, assignments, demand_rate)) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
}

SideMaskEvaluator::~SideMaskEvaluator() = default;
SideMaskEvaluator::SideMaskEvaluator(SideMaskEvaluator&&) noexcept = default;

Mask SideMaskEvaluator::realized(Mask config) {
  Impl& im = *impl_;
  Mask out = 0;
  for (int j = 0; j < im.set->size(); ++j) {
    const SuperArcPlan plan = plan_assignment_arcs(
        *im.side, im.set->assignments[static_cast<std::size_t>(j)], im.rate);
    apply_assignment_plan(im.residual, plan);
    im.residual.reset(config);
    ++calls_;
    if (im.solver.solve(im.residual.graph(), im.terminals.source,
                        im.terminals.sink, plan.required) >= plan.required) {
      out |= bit(j);
    }
  }
  return out;
}

namespace {

// Low edges covered by the fold's prefix table: 2^10 doubles stay in L1.
constexpr int kPrefixEdges = 10;

// The fold proper, one kernel for every index width. Each configuration's
// probability is the product of its edge factors (alive ? 1 - p : p) in
// ascending edge order, starting from 1.0 — the definitional sequence,
// reached with almost no per-configuration work:
//   * a prefix table over the low L = min(m, 10) edges, built level by
//     level, holds the products over edges 0..L-1 of every low pattern;
//   * rank r = B * 2^L + l has gray_code(r) = (gray_code(B) << L) ^
//     gray_code(l) ^ ((B & 1) << (L - 1)), so two rank-ordered copies of
//     the table (one per parity of the block index B) give the low
//     products of a whole block with unit stride;
//   * the high edges' factors are constant over a block and multiply in,
//     in ascending edge order, as flat vectorizable passes.
// Buckets and the Neumaier total then accumulate in rank order, so the
// result is bitwise fixed by the masks and the probabilities alone.
template <typename I>
MaskDistribution fold_ranks(int m, std::span<const double> probs,
                            const std::vector<Mask>& palette,
                            const std::vector<I>& index) {
  const int low = std::min(m, kPrefixEdges);
  const std::size_t block = std::size_t{1} << low;
  std::vector<double> prefix(block);
  prefix[0] = 1.0;
  for (int j = 0; j < low; ++j) {
    const double p = probs[static_cast<std::size_t>(j)];
    const std::size_t half = std::size_t{1} << j;
    for (std::size_t x = 0; x < half; ++x) {
      prefix[x | half] = prefix[x] * (1.0 - p);
      prefix[x] *= p;
    }
  }
  std::vector<double> rank_prefix(2 * block);  // parity 0, then parity 1
  const Mask seam = low > 0 ? bit(low - 1) : 0;
  for (std::size_t l = 0; l < block; ++l) {
    const Mask g = gray_code(l);
    rank_prefix[l] = prefix[static_cast<std::size_t>(g)];
    rank_prefix[block + l] = prefix[static_cast<std::size_t>(g ^ seam)];
  }

  std::vector<double> sums(palette.size(), 0.0);
  KahanSum total;
  std::vector<double> lane(block);
  for (std::size_t base = 0; base < index.size(); base += block) {
    const Mask b = base >> low;
    const Mask high = gray_code(b);
    const double* low_products = rank_prefix.data() + (b & 1) * block;
    std::copy(low_products, low_products + block, lane.begin());
    // Four factors per pass; padding with 1.0 leaves every bit as is.
    for (int e = low; e < m; e += 4) {
      std::array<double, 4> f{1.0, 1.0, 1.0, 1.0};
      for (int k = 0; k < 4 && e + k < m; ++k) {
        const double p = probs[static_cast<std::size_t>(e + k)];
        f[static_cast<std::size_t>(k)] =
            test_bit(high, e + k - low) ? 1.0 - p : p;
      }
      for (double& x : lane) x = x * f[0] * f[1] * f[2] * f[3];
    }
    const I* slots = index.data() + base;
    for (std::size_t l = 0; l < block; ++l) {
      sums[slots[l]] += lane[l];
      total.add(lane[l]);
    }
  }

  MaskDistribution dist;
  dist.buckets.reserve(palette.size());
  for (std::size_t s = 0; s < palette.size(); ++s) {
    dist.buckets.emplace_back(palette[s], sums[s]);
  }
  std::sort(dist.buckets.begin(), dist.buckets.end());
  dist.total = total.value();
  return dist;
}

}  // namespace

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table) {
  return bucket_side_array(side, table, side.view.failure_probs());
}

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table,
                                   std::span<const double> probs) {
  const int m = side.view.num_edges();
  if (probs.size() != static_cast<std::size_t>(m)) {
    throw std::invalid_argument("one failure probability per side link");
  }
  if (table.size() != (std::size_t{1} << m)) {
    throw std::invalid_argument("side array size is not 2^|side links|");
  }
  return std::visit(
      [&](const auto& index) {
        return fold_ranks(m, probs, table.palette, index);
      },
      table.index);
}

}  // namespace streamrel
