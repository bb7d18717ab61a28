#include "streamrel/core/side_array.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <memory>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <chrono>

#include "streamrel/maxflow/config_residual.hpp"
#include "streamrel/maxflow/incremental_dinic.hpp"
#include "streamrel/util/config_prob.hpp"
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

// Raw shard-local counters for the hot sweep loops (a Telemetry map
// lookup per configuration would dominate); flushed into the public
// SideArrayStats telemetry once per shard, in shard order.
struct SweepCounters {
  std::uint64_t maxflow_calls = 0;
  std::uint64_t pruned_decisions = 0;
  std::uint64_t engine_toggles = 0;
  // Bit-parallel sweep: per-lane decisions by kernel, plus the scalar
  // residue that consulted an engine. Zero on the other strategies (the
  // keys are still flushed, so telemetry trees stay structurally
  // comparable across strategies and thread counts).
  std::uint64_t lanes_certificate = 0;
  std::uint64_t lanes_connectivity = 0;
  std::uint64_t lanes_popcount = 0;
  std::uint64_t scalar_residue = 0;

  void merge(const SweepCounters& other) noexcept {
    maxflow_calls += other.maxflow_calls;
    pruned_decisions += other.pruned_decisions;
    engine_toggles += other.engine_toggles;
    lanes_certificate += other.lanes_certificate;
    lanes_connectivity += other.lanes_connectivity;
    lanes_popcount += other.lanes_popcount;
    scalar_residue += other.scalar_residue;
  }

  void flush(Telemetry& telemetry) const {
    telemetry.counter(telemetry_keys::kMaxflowCalls) += maxflow_calls;
    telemetry.counter(telemetry_keys::kPrunedDecisions) += pruned_decisions;
    telemetry.counter(telemetry_keys::kEngineToggles) += engine_toggles;
    telemetry.counter(telemetry_keys::kLanesWordwise) +=
        lanes_certificate + lanes_connectivity + lanes_popcount;
    telemetry.counter(telemetry_keys::kLanesCertificate) += lanes_certificate;
    telemetry.counter(telemetry_keys::kLanesConnectivity) +=
        lanes_connectivity;
    telemetry.counter(telemetry_keys::kLanesPopcount) += lanes_popcount;
    telemetry.counter(telemetry_keys::kScalarResidue) += scalar_residue;
  }
};

// Cooperative stop poll, called every ExecContext::kPollStride steps of a
// shard's walk. `aborted` is shared across shards so one observing thread
// stops them all at their next poll.
bool poll_stop(const ExecContext* ctx, std::atomic<bool>& aborted) {
  if (!ctx) return false;
  if (aborted.load(std::memory_order_relaxed)) return true;
  if (!ctx->should_stop()) return false;
  aborted.store(true, std::memory_order_relaxed);
  return true;
}

// Shared super-arc layout: index 0 is the anchor arc, then per crossing
// edge i an "in" arc S0 -> endpoint (index 1 + 2i) and an "out" arc
// endpoint -> T1 (index 2 + 2i). All arcs start at capacity 0; the
// configure_* helpers below set the pristine capacities, which take
// effect at the next reset (scratch path) or engine attach (Gray path).
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
// feasibility. The bit-parallel kernels read the plan directly (seed /
// target sets, anchor-cut bypass); the scalar paths apply it to a
// residual graph.
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

// Configures the super arcs for one assignment; returns the flow total
// that signals feasibility.
Capacity configure_assignment_arcs(ConfigResidual& residual,
                                   const SideProblem& side,
                                   const Assignment& a, Capacity d) {
  const SuperArcPlan plan = plan_assignment_arcs(side, a, d);
  apply_assignment_plan(residual, plan);
  return plan.required;
}

// Configures f(Q) probing for the polymatroid path: every endpoint in Q
// gets capacity `d` on its demand-facing arc.
void configure_subset_arcs(ConfigResidual& residual, const SideProblem& side,
                           Mask q, Capacity d) {
  residual.set_super_arc(0, d, 0);
  for (std::size_t i = 0; i < side.endpoints.size(); ++i) {
    const std::size_t in_arc = 1 + 2 * i;
    const std::size_t out_arc = 2 + 2 * i;
    const bool in_q = test_bit(q, static_cast<int>(i));
    if (side.is_source_side) {
      residual.set_super_arc(in_arc, 0, 0);
      residual.set_super_arc(out_arc, in_q ? d : 0, 0);
    } else {
      residual.set_super_arc(in_arc, in_q ? d : 0, 0);
      residual.set_super_arc(out_arc, 0, 0);
    }
  }
}

// Per assignment, per subset Q: sum of usages inside Q (Gale's condition
// data for the polymatroid path).
std::vector<std::vector<Capacity>> subset_usage_sums(
    const AssignmentSet& assignments, Mask subsets) {
  std::vector<std::vector<Capacity>> sums(
      static_cast<std::size_t>(assignments.size()),
      std::vector<Capacity>(static_cast<std::size_t>(subsets), 0));
  for (int j = 0; j < assignments.size(); ++j) {
    const auto& usage =
        assignments.assignments[static_cast<std::size_t>(j)].usage;
    for (Mask q = 1; q < subsets; ++q) {
      const int low = lowest_bit(q);
      sums[static_cast<std::size_t>(j)][static_cast<std::size_t>(q)] =
          sums[static_cast<std::size_t>(j)][static_cast<std::size_t>(q & (q - 1))] +
          usage[static_cast<std::size_t>(low)];
    }
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Scratch sweeps — the paper's procedure, one reset + solve per query.

struct SideEvaluator {
  explicit SideEvaluator(const SideProblem& side)
      : side_(&side),
        residual_(side.view),
        terminals_(add_side_super_arcs(residual_, side)) {}

  Capacity configure(const Assignment& a, Capacity d) {
    return configure_assignment_arcs(residual_, *side_, a, d);
  }

  void configure_subset(Mask q, Capacity d) {
    configure_subset_arcs(residual_, *side_, q, d);
  }

  Capacity solve(Mask config, Capacity limit) {
    residual_.reset(config);
    return solver_.solve(residual_.graph(), terminals_.source,
                         terminals_.sink, limit);
  }

  const SideProblem* side_;
  ConfigResidual residual_;
  DinicSolver solver_;
  SuperTerminals terminals_;
};

void sweep_per_assignment(const SideProblem& side,
                          const AssignmentSet& assignments, Capacity d,
                          Mask first, Mask last, std::vector<Mask>& array,
                          SweepCounters& stats, const ExecContext* ctx,
                          std::atomic<bool>& aborted) {
  SideEvaluator eval(side);
  ProgressMarker progress(exec_progress(ctx));
  const std::uint64_t span = last - first + 1;
  const std::uint64_t passes = static_cast<std::uint64_t>(assignments.size());
  for (int j = 0; j < assignments.size(); ++j) {
    const Capacity required =
        eval.configure(assignments.assignments[static_cast<std::size_t>(j)],
                       d);
    for (Mask config = first;; ++config) {
      if (((config - first) & (ExecContext::kPollStride - 1)) == 0) {
        if (poll_stop(ctx, aborted)) return;
        // This sweep walks the range once PER assignment; progress counts
        // each configuration once, pro-rated over the passes.
        progress.at((static_cast<std::uint64_t>(j) * span +
                     (config - first)) /
                    passes);
      }
      ++stats.maxflow_calls;
      STREAMREL_TRACE_SAMPLED_SPAN(mf_span, stats.maxflow_calls, "maxflow",
                                   "maxflow");
      if (eval.solve(config, required) >= required) {
        array[static_cast<std::size_t>(config)] |= bit(j);
      }
      if (config == last) break;
    }
  }
  progress.at(span);
}

void sweep_polymatroid(const SideProblem& side,
                       const AssignmentSet& assignments, Capacity d,
                       Mask first, Mask last, std::vector<Mask>& array,
                       SweepCounters& stats, const ExecContext* ctx,
                       std::atomic<bool>& aborted) {
  const int k = static_cast<int>(side.endpoints.size());
  const Mask subsets = Mask{1} << k;
  const std::vector<std::vector<Capacity>> subset_sums =
      subset_usage_sums(assignments, subsets);

  SideEvaluator eval(side);
  ProgressMarker progress(exec_progress(ctx));
  std::vector<Capacity> f(static_cast<std::size_t>(subsets), 0);
  for (Mask config = first;; ++config) {
    if (((config - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (poll_stop(ctx, aborted)) return;
      progress.at(config - first);
    }
    for (Mask q = 1; q < subsets; ++q) {
      eval.configure_subset(q, d);
      ++stats.maxflow_calls;
      STREAMREL_TRACE_SAMPLED_SPAN(mf_span, stats.maxflow_calls, "maxflow",
                                   "maxflow");
      f[static_cast<std::size_t>(q)] = eval.solve(config, d);
    }
    Mask realized = 0;
    for (int j = 0; j < assignments.size(); ++j) {
      bool ok = true;
      for (Mask q = 1; q < subsets && ok; ++q) {
        ok = subset_sums[static_cast<std::size_t>(j)]
                        [static_cast<std::size_t>(q)] <=
             f[static_cast<std::size_t>(q)];
      }
      if (ok) realized |= bit(j);
    }
    array[static_cast<std::size_t>(config)] = realized;
    if (config == last) break;
  }
  progress.at(last - first + 1);
}

// ---------------------------------------------------------------------------
// Gray-code incremental sweeps.
//
// One persistent IncrementalMaxFlow engine per feasibility question
// (per assignment, or per subset Q on the polymatroid path). The walk
// visits configurations as gray_code(rank) for rank in [first, last], so
// consecutive configurations differ in exactly one link and a consulted
// engine repairs one edge instead of re-solving. Engines synchronise
// LAZILY: monotone pruning answers a query from the engine's stale state
// whenever feasibility at a subset (yes) or superset (no) already decides
// it, and only a query the pruning cannot answer pays for the catch-up
// toggles. Output is bitwise-identical to the scratch sweeps.

struct GrayEngine {
  explicit GrayEngine(const NetworkView& view) : residual(view) {}

  ConfigResidual residual;
  SuperTerminals terminals;
  std::unique_ptr<IncrementalMaxFlow> flow;
  // Cached verdict for state flow->alive_mask(), with certificates that
  // extend it well beyond subset/superset states (see refresh()):
  Capacity value = 0;  ///< bounded flow value at the cached state
  bool admits = false; ///< value >= the engine's target
  Mask support = 0;    ///< side edges the cached flow routes through
  Mask cut = 0;        ///< saturated-cut crossing edges (when !admits)

  /// Re-reads the verdict and (when pruning consults them) its
  /// certificates after a sync. The support certificate keeps the
  /// verdict's LOWER bound valid at any config that preserves the
  /// carrying edges; the cut certificate keeps the UPPER bound (the
  /// saturated cut's capacity == value) valid at any config that does not
  /// revive a dead crossing edge.
  void refresh(bool with_certificates) {
    value = flow->flow_value();
    admits = flow->admits();
    if (!with_certificates) return;
    support = flow->support_mask();
    cut = admits ? Mask{0} : flow->cut_mask();
  }

  void collect(SweepCounters& stats) const {
    stats.maxflow_calls += flow->solver_calls();
    stats.engine_toggles += flow->toggles();
  }
};

void sweep_per_assignment_gray(const SideProblem& side,
                               const AssignmentSet& assignments, Capacity d,
                               bool pruning, Mask first, Mask last,
                               std::vector<Mask>& array, SweepCounters& stats,
                               const ExecContext* ctx,
                               std::atomic<bool>& aborted) {
  const Mask start_config = gray_code(first);
  std::vector<std::unique_ptr<GrayEngine>> engines;
  engines.reserve(static_cast<std::size_t>(assignments.size()));
  for (int j = 0; j < assignments.size(); ++j) {
    auto e = std::make_unique<GrayEngine>(side.view);
    e->terminals = add_side_super_arcs(e->residual, side);
    const Capacity required = configure_assignment_arcs(
        e->residual, side, assignments.assignments[static_cast<std::size_t>(j)],
        d);
    e->flow = std::make_unique<IncrementalMaxFlow>(
        e->residual, e->terminals.source, e->terminals.sink, required,
        start_config);
    e->refresh(pruning);
    engines.push_back(std::move(e));
  }

  ProgressMarker progress(exec_progress(ctx));
  std::uint64_t sync_ops = 0;
  bool stopped = false;
  for (Mask rank = first;; ++rank) {
    if (((rank - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (poll_stop(ctx, aborted)) {
        stopped = true;
        break;  // still collect engine counters below
      }
      progress.at(rank - first);
    }
    const Mask config = gray_code(rank);
    Mask realized = 0;
    for (int j = 0; j < assignments.size(); ++j) {
      GrayEngine& e = *engines[static_cast<std::size_t>(j)];
      const Mask state = e.flow->alive_mask();
      bool ok;
      if (state == config) {
        ok = e.admits;
      } else if (pruning && e.admits && (e.support & ~config) == 0) {
        // The cached flow's carrying edges are all alive: the same flow
        // still routes the demand, whatever else toggled.
        ok = true;
        ++stats.pruned_decisions;
      } else if (pruning && !e.admits && (config & e.cut & ~state) == 0) {
        // No dead crossing edge of the cached saturated cut was revived:
        // the cut still bounds the max-flow below the requirement.
        ok = false;
        ++stats.pruned_decisions;
      } else {
        ++sync_ops;
        STREAMREL_TRACE_SAMPLED_SPAN(mf_span, sync_ops, "maxflow_sync",
                                     "maxflow");
        e.flow->sync_to(config);
        e.refresh(pruning);
        ok = e.admits;
      }
      if (ok) realized |= bit(j);
    }
    array[static_cast<std::size_t>(config)] = realized;
    if (rank == last) break;
  }
  if (!stopped) progress.at(last - first + 1);
  for (const auto& e : engines) e->collect(stats);
}

void sweep_polymatroid_gray(const SideProblem& side,
                            const AssignmentSet& assignments, Capacity d,
                            bool pruning, Mask first, Mask last,
                            std::vector<Mask>& array, SweepCounters& stats,
                            const ExecContext* ctx,
                            std::atomic<bool>& aborted) {
  const int k = static_cast<int>(side.endpoints.size());
  const Mask subsets = Mask{1} << k;
  const std::vector<std::vector<Capacity>> subset_sums =
      subset_usage_sums(assignments, subsets);

  const Mask start_config = gray_code(first);
  // Engine q (1 <= q < subsets) maintains f(Q) = min(d, maxflow to the
  // endpoints of Q); index 0 stays empty.
  std::vector<std::unique_ptr<GrayEngine>> engines(
      static_cast<std::size_t>(subsets));
  for (Mask q = 1; q < subsets; ++q) {
    auto e = std::make_unique<GrayEngine>(side.view);
    e->terminals = add_side_super_arcs(e->residual, side);
    configure_subset_arcs(e->residual, side, q, d);
    e->flow = std::make_unique<IncrementalMaxFlow>(
        e->residual, e->terminals.source, e->terminals.sink, d, start_config);
    e->refresh(pruning);
    engines[static_cast<std::size_t>(q)] = std::move(e);
  }

  // f(Q) for the configuration at `rank`, consulting engine Q lazily. The
  // cached value v carries two certificates: while the cached flow's
  // carrying edges stay alive, f >= v; while no dead edge of the cached
  // saturated cut is revived, f <= v (the cut's capacity IS v). At the cap
  // (v >= d) the lower bound alone decides; below it both together pin
  // f(config) = v exactly without a sync.
  std::uint64_t sync_ops = 0;
  const auto f_of = [&](Mask q, Mask config) -> Capacity {
    GrayEngine& e = *engines[static_cast<std::size_t>(q)];
    const Mask state = e.flow->alive_mask();
    if (state == config) return e.value;
    if (pruning && (e.support & ~config) == 0) {
      if (e.value >= d) {
        ++stats.pruned_decisions;
        return d;
      }
      if ((config & e.cut & ~state) == 0) {
        ++stats.pruned_decisions;
        return e.value;
      }
    }
    ++sync_ops;
    STREAMREL_TRACE_SAMPLED_SPAN(mf_span, sync_ops, "maxflow_sync", "maxflow");
    e.flow->sync_to(config);
    e.refresh(pruning);
    return e.value;
  };

  ProgressMarker progress(exec_progress(ctx));
  bool stopped = false;
  Mask realized_prev = 0;
  for (Mask rank = first;; ++rank) {
    if (((rank - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (poll_stop(ctx, aborted)) {
        stopped = true;
        break;  // still collect engine counters below
      }
      progress.at(rank - first);
    }
    const Mask config = gray_code(rank);
    // Assignment-level monotone pruning off the previous Gray step: a
    // link turned ON keeps every realized assignment realized; a link
    // turned OFF keeps every unrealized assignment unrealized.
    Mask decided = 0;
    Mask decided_values = 0;
    if (pruning && rank != first) {
      if (test_bit(config, gray_flip_bit(rank - 1))) {
        decided = realized_prev;
        decided_values = realized_prev;
      } else {
        decided = ~realized_prev;
      }
    }
    Mask realized = 0;
    for (int j = 0; j < assignments.size(); ++j) {
      bool ok;
      if (test_bit(decided, j)) {
        ok = test_bit(decided_values, j);
        ++stats.pruned_decisions;
      } else {
        ok = true;
        const auto& sums = subset_sums[static_cast<std::size_t>(j)];
        for (Mask q = 1; q < subsets && ok; ++q) {
          ok = sums[static_cast<std::size_t>(q)] <= f_of(q, config);
        }
      }
      if (ok) realized |= bit(j);
    }
    array[static_cast<std::size_t>(config)] = realized;
    realized_prev = realized;
    if (rank == last) break;
  }
  if (!stopped) progress.at(last - first + 1);
  for (Mask q = 1; q < subsets; ++q) {
    engines[static_cast<std::size_t>(q)]->collect(stats);
  }
}

// ---------------------------------------------------------------------------
// Bit-parallel slab sweep (SideSweepStrategy::kBitParallel).
//
// The Gray walk is processed in 64-rank slabs held transposed in a
// BitSlabs window (one word per side edge, bit L = "alive at rank
// base + L"). Three word-wide kernels decide whole lanes at once, in
// order of cost:
//
//   1. certificate bank — the last few engine verdicts of this
//      assignment, replayed word-wide: an admitting flow's support
//      edges AND together into a YES lane set, a saturated cut's dead
//      crossing edges AND (complemented) into a NO lane set;
//   2. 64-lane BFS — when the required flow is 1 and every side cap is
//      >= 1, feasibility IS reachability, and one bit-parallel BFS over
//      the side adjacency decides all 64 lanes exactly (both ways);
//   3. anchor-cut popcount — a bit-sliced saturating tally of the alive
//      capacity crossing the anchor's cut, compared per lane against
//      the assignment's requirement: lanes whose cut cannot carry the
//      demand are NO.
//
// Only the residue consults a scalar engine (created lazily, synced to
// the lowest undecided lane); the fresh certificate re-runs word-wide
// immediately, so one sync typically clears many lanes at once. Every
// kernel is sound and the engine is exact, so the output array is
// bitwise identical to kScratch — only the path to each decision (and
// hence maxflow_calls) differs.

constexpr std::size_t kCertBankSize = 12;

struct WordCert {
  Mask mask = 0;  ///< YES: support edges; NO: dead crossing cut edges
  bool admits = false;
};

/// Fixed-capacity most-recent-first certificate ring.
struct CertBank {
  std::array<WordCert, kCertBankSize> certs;
  std::size_t head = 0;  ///< slot of the most recent certificate
  std::size_t count = 0;

  void push(const WordCert& cert) {
    head = (head + kCertBankSize - 1) % kCertBankSize;
    certs[head] = cert;
    if (count < kCertBankSize) ++count;
  }
  const WordCert& at(std::size_t i) const {  // i == 0: most recent
    return certs[(head + i) % kCertBankSize];
  }
};

/// Word-wide replay of one certificate over the slab: returns the lanes
/// (drawn from `candidates`) the certificate decides; the decided value
/// is cert.admits. A YES lane keeps every support edge alive; a NO lane
/// revives no dead crossing edge of the saturated cut.
std::uint64_t cert_decided_lanes(const WordCert& cert, const BitSlabs& slabs,
                                 std::uint64_t candidates) {
  std::uint64_t w = candidates;
  if (cert.admits) {
    for (Mask rest = cert.mask; rest != 0 && w != 0; rest &= rest - 1) {
      w &= slabs.word(lowest_bit(rest));
    }
  } else {
    for (Mask rest = cert.mask; rest != 0 && w != 0; rest &= rest - 1) {
      w &= ~slabs.word(lowest_bit(rest));
    }
  }
  return w;
}

/// Saturating bit-sliced tally over 64 lanes: add() accumulates a small
/// weight into every lane of a word; less_than() then compares all 64
/// sums against the threshold at once. Weights are pre-clamped to the
/// threshold, so bit_width(threshold) value slices plus one overflow
/// word suffice.
class LaneTally {
 public:
  explicit LaneTally(Capacity threshold)
      : bits_(static_cast<int>(
            std::bit_width(static_cast<std::uint64_t>(threshold)))) {}

  void add(std::uint64_t lanes, Capacity weight) {
    const auto w = static_cast<std::uint64_t>(weight);
    for (int b = 0; (w >> b) != 0; ++b) {
      if (((w >> b) & 1) == 0) continue;
      std::uint64_t carry = lanes;
      for (int i = b; i < bits_ && carry != 0; ++i) {
        const std::uint64_t overlap = s_[static_cast<std::size_t>(i)] & carry;
        s_[static_cast<std::size_t>(i)] ^= carry;
        carry = overlap;
      }
      overflow_ |= carry;
    }
  }

  /// Lanes whose tally is strictly below `threshold`.
  std::uint64_t less_than(Capacity threshold) const {
    std::uint64_t lt = 0;
    std::uint64_t ge = overflow_;
    for (int i = bits_ - 1; i >= 0; --i) {
      const std::uint64_t open = ~(lt | ge);
      if (test_bit(static_cast<Mask>(threshold), i)) {
        lt |= open & ~s_[static_cast<std::size_t>(i)];
      } else {
        ge |= open & s_[static_cast<std::size_t>(i)];
      }
    }
    return lt;
  }

 private:
  std::array<std::uint64_t, 6> s_{};
  std::uint64_t overflow_ = 0;
  int bits_;
};

/// 64-lane reachability from the seed nodes over the slab's alive edges;
/// returns the lanes in which any target node is reached. Propagates to
/// a fixpoint (each pass is O(|E_side|) word ops; the pass count is
/// bounded by the side's diameter).
std::uint64_t connected_lanes(const BitSlabs& slabs,
                              const std::vector<NodeId>& eu,
                              const std::vector<NodeId>& ev,
                              const std::vector<std::uint8_t>& undirected,
                              const std::vector<NodeId>& seeds,
                              const std::vector<NodeId>& targets,
                              std::vector<std::uint64_t>& reach) {
  std::fill(reach.begin(), reach.end(), 0);
  for (NodeId s : seeds) {
    reach[static_cast<std::size_t>(s)] = ~std::uint64_t{0};
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t e = 0; e < eu.size(); ++e) {
      const std::uint64_t w = slabs.word(static_cast<int>(e));
      if (w == 0) continue;
      const auto u = static_cast<std::size_t>(eu[e]);
      const auto v = static_cast<std::size_t>(ev[e]);
      const std::uint64_t fwd = reach[u] & w & ~reach[v];
      if (fwd != 0) {
        reach[v] |= fwd;
        changed = true;
      }
      if (undirected[e] != 0) {
        const std::uint64_t bwd = reach[v] & w & ~reach[u];
        if (bwd != 0) {
          reach[u] |= bwd;
          changed = true;
        }
      }
    }
  }
  std::uint64_t out = 0;
  for (NodeId t : targets) {
    out |= reach[static_cast<std::size_t>(t)];
  }
  return out;
}

/// Per-assignment sweep state: the resolved super-arc plan, kernel
/// eligibility data, the certificate ring, and the lazily created
/// residue engine.
struct SlabAssignment {
  SuperArcPlan plan;
  bool connectivity = false;   ///< required == 1 and all side caps >= 1
  Capacity cut_threshold = 0;  ///< required - endpoint bypass capacity
  std::vector<NodeId> seeds;   ///< BFS sources (positive supply arcs)
  std::vector<NodeId> targets; ///< BFS sinks (positive demand arcs)
  CertBank bank;
  std::unique_ptr<GrayEngine> engine;
};

void sweep_per_assignment_bitparallel(const SideProblem& side,
                                      const AssignmentSet& assignments,
                                      Capacity d, Mask first, Mask last,
                                      std::vector<Mask>& array,
                                      SweepCounters& stats,
                                      const ExecContext* ctx,
                                      std::atomic<bool>& aborted) {
  const int m = side.view.num_edges();

  // Flat side adjacency (view translation hoisted out of the BFS).
  std::vector<NodeId> eu(static_cast<std::size_t>(m));
  std::vector<NodeId> ev(static_cast<std::size_t>(m));
  std::vector<std::uint8_t> undirected(static_cast<std::size_t>(m));
  bool unit_or_more = true;
  for (int e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(e);
    eu[i] = side.view.edge_u(e);
    ev[i] = side.view.edge_v(e);
    undirected[i] = side.view.edge_directed(e) ? 0 : 1;
    unit_or_more = unit_or_more && side.view.edge_capacity(e) >= 1;
  }

  // Side edges able to carry flow out of {S0, anchor} (source side),
  // resp. into {anchor, T1} (sink side) — the configuration-dependent
  // part of the anchor cut the popcount kernel bounds.
  std::vector<std::pair<int, Capacity>> anchor_edges;
  for (int e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(e);
    if (eu[i] != side.anchor && ev[i] != side.anchor) continue;
    if (eu[i] == ev[i]) continue;  // self loop never crosses the cut
    const bool crosses =
        undirected[i] != 0 || (side.is_source_side ? eu[i] == side.anchor
                                                   : ev[i] == side.anchor);
    if (crosses) anchor_edges.emplace_back(e, side.view.edge_capacity(e));
  }

  std::vector<SlabAssignment> state(
      static_cast<std::size_t>(assignments.size()));
  for (int j = 0; j < assignments.size(); ++j) {
    SlabAssignment& a = state[static_cast<std::size_t>(j)];
    a.plan = plan_assignment_arcs(
        side, assignments.assignments[static_cast<std::size_t>(j)], d);
    a.connectivity = a.plan.required == 1 && unit_or_more;
    // Endpoint super arcs crossing the anchor cut regardless of the side
    // configuration: an endpoint AT the anchor crosses on its
    // demand-facing arc, every other endpoint on its supply-facing one.
    Capacity bypass = 0;
    for (std::size_t i = 0; i < side.endpoints.size(); ++i) {
      const bool at_anchor = side.endpoints[i] == side.anchor;
      if (side.is_source_side) {
        bypass += at_anchor ? a.plan.out_cap[i] : a.plan.in_cap[i];
      } else {
        bypass += at_anchor ? a.plan.in_cap[i] : a.plan.out_cap[i];
      }
      if (a.plan.in_cap[i] > 0) a.seeds.push_back(side.endpoints[i]);
      if (a.plan.out_cap[i] > 0) a.targets.push_back(side.endpoints[i]);
    }
    // The anchor arc's capacity (d >= 1) makes the anchor a
    // configuration-independent seed (source side) / target (sink side).
    if (side.is_source_side) {
      a.seeds.push_back(side.anchor);
    } else {
      a.targets.push_back(side.anchor);
    }
    a.cut_threshold = a.plan.required - bypass;
  }

  BitSlabs slabs(m);
  std::vector<std::uint64_t> reach(
      static_cast<std::size_t>(side.view.num_nodes()), 0);
  std::array<Mask, 64> realized{};
  ProgressMarker progress(exec_progress(ctx));
  std::uint64_t sync_ops = 0;
  bool stopped = false;
  for (Mask base = first; base <= last; base += 64) {
    if (((base - first) & (ExecContext::kPollStride - 1)) == 0) {
      if (poll_stop(ctx, aborted)) {
        stopped = true;
        break;  // still collect engine counters below
      }
      progress.at(base - first);
    }
    const int lanes = static_cast<int>(std::min<Mask>(64, last - base + 1));
    const std::uint64_t valid = lanes == 64
                                    ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << lanes) - 1;
    slabs.fill(base);
    realized.fill(0);
    for (int j = 0; j < assignments.size(); ++j) {
      SlabAssignment& a = state[static_cast<std::size_t>(j)];
      std::uint64_t undecided = valid;
      std::uint64_t yes = 0;

      if (a.connectivity) {
        // Feasibility == reachability: the BFS decides every lane of
        // the slab exactly, both YES and NO — no engine is ever needed.
        yes = connected_lanes(slabs, eu, ev, undirected, a.seeds, a.targets,
                              reach) &
              undecided;
        stats.lanes_connectivity +=
            static_cast<std::uint64_t>(popcount(undecided));
        undecided = 0;
      } else {
        for (std::size_t c = 0; c < a.bank.count && undecided != 0; ++c) {
          const WordCert& cert = a.bank.at(c);
          const std::uint64_t w = cert_decided_lanes(cert, slabs, undecided);
          if (cert.admits) yes |= w;
          undecided &= ~w;
          stats.lanes_certificate += static_cast<std::uint64_t>(popcount(w));
        }
        if (undecided != 0 && a.cut_threshold >= 1) {
          LaneTally tally(a.cut_threshold);
          for (const auto& [e, cap] : anchor_edges) {
            tally.add(slabs.word(e), std::min(cap, a.cut_threshold));
          }
          const std::uint64_t no_w =
              tally.less_than(a.cut_threshold) & undecided;
          undecided &= ~no_w;
          stats.lanes_popcount += static_cast<std::uint64_t>(popcount(no_w));
        }
        while (undecided != 0) {
          const int L = lowest_bit(undecided);
          const Mask config = gray_code(base + static_cast<Mask>(L));
          if (!a.engine) {
            // First residue lane of this assignment: build the engine
            // directly at `config` (the construction solve is the sync).
            a.engine = std::make_unique<GrayEngine>(side.view);
            a.engine->terminals =
                add_side_super_arcs(a.engine->residual, side);
            apply_assignment_plan(a.engine->residual, a.plan);
            a.engine->flow = std::make_unique<IncrementalMaxFlow>(
                a.engine->residual, a.engine->terminals.source,
                a.engine->terminals.sink, a.plan.required, config);
          } else {
            ++sync_ops;
            STREAMREL_TRACE_SAMPLED_SPAN(mf_span, sync_ops, "maxflow_sync",
                                         "maxflow");
            a.engine->flow->sync_to(config);
          }
          a.engine->refresh(/*with_certificates=*/true);
          WordCert cert;
          cert.admits = a.engine->admits;
          cert.mask =
              cert.admits ? a.engine->support : (a.engine->cut & ~config);
          a.bank.push(cert);
          // The fresh certificate always covers its own lane (support
          // is alive at `config`; no cut edge dead at `config` is alive
          // there), so the loop strictly shrinks `undecided`.
          const std::uint64_t w = cert_decided_lanes(cert, slabs, undecided);
          if (cert.admits) yes |= w;
          undecided &= ~w;
          ++stats.scalar_residue;
          stats.lanes_certificate +=
              static_cast<std::uint64_t>(popcount(w)) - 1;
        }
      }
      for (std::uint64_t rest = yes; rest != 0; rest &= rest - 1) {
        realized[static_cast<std::size_t>(lowest_bit(rest))] |= bit(j);
      }
    }
    for (int L = 0; L < lanes; ++L) {
      array[static_cast<std::size_t>(
          gray_code(base + static_cast<Mask>(L)))] =
          realized[static_cast<std::size_t>(L)];
    }
  }
  if (!stopped) progress.at(last - first + 1);
  for (const SlabAssignment& a : state) {
    if (a.engine) a.engine->collect(stats);
  }
}

}  // namespace

std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options,
                                   SideArrayStats* stats,
                                   const ExecContext* ctx) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
  FeasibilityMethod method = options.feasibility;
  if (method == FeasibilityMethod::kPolymatroid &&
      assignments.mode != AssignmentMode::kForwardOnly) {
    throw std::invalid_argument(
        "polymatroid feasibility requires forward-only assignments");
  }
  if (method == FeasibilityMethod::kAuto) {
    const auto k = side.endpoints.size();
    const bool poly_cheaper =
        k < 6 && static_cast<std::size_t>(assignments.size()) >
                     ((std::size_t{1} << k) - 1);
    method = (assignments.mode == AssignmentMode::kForwardOnly && poly_cheaper)
                 ? FeasibilityMethod::kPolymatroid
                 : FeasibilityMethod::kPerAssignment;
  }

  const int m = side.view.num_edges();
  const Mask total = Mask{1} << m;

  SideSweepStrategy sweep = options.sweep;
  if (sweep == SideSweepStrategy::kAuto) {
    // Engine setup costs |D| (resp. 2^k - 1) graph builds per shard; only
    // worth amortizing over a reasonably large walk. Per-assignment
    // feasibility takes the slab sweep (word-wide kernels decide most
    // lanes without a solver); polymatroid feasibility keeps the Gray
    // engine bank, which grows with 2^k, so very wide bottlenecks stay
    // scratch.
    if (total < 1024) {
      sweep = SideSweepStrategy::kScratch;
    } else if (method == FeasibilityMethod::kPolymatroid) {
      sweep = side.endpoints.size() > 12 ? SideSweepStrategy::kScratch
                                         : SideSweepStrategy::kGrayIncremental;
    } else {
      sweep = SideSweepStrategy::kBitParallel;
    }
  }
  // The slab kernels reason about single assignments; a polymatroid
  // request under kBitParallel falls back to the Gray engine bank.
  if (sweep == SideSweepStrategy::kBitParallel &&
      method == FeasibilityMethod::kPolymatroid) {
    sweep = SideSweepStrategy::kGrayIncremental;
  }

  const char* strategy_name =
      sweep == SideSweepStrategy::kGrayIncremental ? "gray"
      : sweep == SideSweepStrategy::kBitParallel   ? "bit_parallel"
                                                   : "scratch";
  TraceSpan sweep_span("build_side_array", "sweep");
  sweep_span.arg("side", side.is_source_side ? "s" : "t")
      .arg("links", static_cast<std::int64_t>(m))
      .arg("configs", static_cast<std::uint64_t>(total))
      .arg("strategy", strategy_name)
      .arg("gray", sweep != SideSweepStrategy::kScratch);

  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(static_cast<std::uint64_t>(total));
  }

  std::vector<Mask> array(static_cast<std::size_t>(total), 0);
  SweepCounters local;
  std::atomic<bool> aborted{false};

  // `first`/`last` are configuration values on the scratch path and
  // Gray-code ranks on the incremental path; either way the shards
  // [0, total) are covered exactly once.
  auto run = [&](Mask first, Mask last, SweepCounters& s) {
    switch (sweep) {
      case SideSweepStrategy::kBitParallel:
        sweep_per_assignment_bitparallel(side, assignments, demand_rate, first,
                                         last, array, s, ctx, aborted);
        break;
      case SideSweepStrategy::kGrayIncremental:
        if (method == FeasibilityMethod::kPolymatroid) {
          sweep_polymatroid_gray(side, assignments, demand_rate,
                                 options.monotone_pruning, first, last, array,
                                 s, ctx, aborted);
        } else {
          sweep_per_assignment_gray(side, assignments, demand_rate,
                                    options.monotone_pruning, first, last,
                                    array, s, ctx, aborted);
        }
        break;
      default:
        if (method == FeasibilityMethod::kPolymatroid) {
          sweep_polymatroid(side, assignments, demand_rate, first, last,
                            array, s, ctx, aborted);
        } else {
          sweep_per_assignment(side, assignments, demand_rate, first, last,
                               array, s, ctx, aborted);
        }
        break;
    }
  };

#ifdef _OPENMP
  if (options.parallel && total >= 1024) {
    // Contiguous, Gray-aligned shards: each shard owns one rank range, so
    // its Gray walk is a single contiguous path. The shard geometry is
    // FIXED by the instance size (never by the thread count), so the
    // per-shard counters — and their shard-order merge below — are
    // identical whether the sweep runs on 1 thread or 64.
    const Mask shard_count = std::min<Mask>(Mask{32}, total >> 10);
    const Mask chunk = total / shard_count;
    const int threads = static_cast<int>(std::min<Mask>(
        static_cast<Mask>(exec_resolved_threads(ctx)), shard_count));
    std::vector<SweepCounters> shard_stats(
        static_cast<std::size_t>(shard_count));
    std::vector<double> shard_ms(static_cast<std::size_t>(shard_count), 0.0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(shard_count);
         ++i) {
      const Mask first = static_cast<Mask>(i) * chunk;
      const Mask last = static_cast<Mask>(i) + 1 == shard_count
                            ? total - 1
                            : first + chunk - 1;
      TraceSpan shard_span("side_sweep_shard", "sweep");
      shard_span.arg("shard", static_cast<std::int64_t>(i))
          .arg("ranks", static_cast<std::uint64_t>(last - first + 1));
      const auto t0 = std::chrono::steady_clock::now();
      run(first, last, shard_stats[static_cast<std::size_t>(i)]);
      shard_ms[static_cast<std::size_t>(i)] =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
    if (aborted.load(std::memory_order_relaxed)) {
      throw ExecInterrupted{ctx->stop_status()};
    }
    for (const SweepCounters& s : shard_stats) local.merge(s);
    if (stats) {
      local.flush(stats->telemetry);
      // Shards run concurrently, so wall clock is the slowest shard (the
      // max), never the sum — the sum is the CPU view and gets its own
      // key. See Telemetry::merge_parallel for the same rule applied to
      // whole trees.
      double wall = 0.0;
      double cpu = 0.0;
      for (double t : shard_ms) {
        wall = std::max(wall, t);
        cpu += t;
      }
      stats->telemetry.timer_ms("sweep") += wall;
      stats->telemetry.timer_ms("sweep_cpu") += cpu;
    }
    return array;
  }
#endif

  {
    const auto t0 = std::chrono::steady_clock::now();
    run(0, total - 1, local);
    if (stats) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      stats->telemetry.timer_ms("sweep") += ms;
      stats->telemetry.timer_ms("sweep_cpu") += ms;
    }
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw ExecInterrupted{ctx->stop_status()};
  }
  if (stats) local.flush(stats->telemetry);
  return array;
}

std::vector<Mask> build_side_array(const SideProblem& side,
                                   const AssignmentSet& assignments,
                                   Capacity demand_rate,
                                   const SideArrayOptions& options,
                                   std::uint64_t* maxflow_calls) {
  SideArrayStats stats;
  std::vector<Mask> array =
      build_side_array(side, assignments, demand_rate, options, &stats);
  if (maxflow_calls) *maxflow_calls += stats.maxflow_calls();
  return array;
}

SlabMaskTable build_side_array_slab(const SideProblem& side,
                                    const AssignmentSet& assignments,
                                    Capacity demand_rate,
                                    const SideArrayOptions& options,
                                    SideArrayStats* stats,
                                    const ExecContext* ctx) {
  return slab_form(
      build_side_array(side, assignments, demand_rate, options, stats, ctx),
      side.view.num_edges());
}

struct SideMaskEvaluator::Impl {
  Impl(const SideProblem& side, const AssignmentSet& assignments, Capacity d)
      : eval(side), set(&assignments), rate(d) {}

  SideEvaluator eval;
  const AssignmentSet* set;
  Capacity rate;
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
  Mask out = 0;
  for (int j = 0; j < impl_->set->size(); ++j) {
    const Capacity required = impl_->eval.configure(
        impl_->set->assignments[static_cast<std::size_t>(j)], impl_->rate);
    ++calls_;
    if (impl_->eval.solve(config, required) >= required) out |= bit(j);
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
