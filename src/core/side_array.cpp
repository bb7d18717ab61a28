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
  std::uint64_t engine_toggles = 0;
  // Per-lane decisions by kernel, plus the scalar residue that consulted
  // an engine.
  std::uint64_t lanes_certificate = 0;
  std::uint64_t lanes_connectivity = 0;
  std::uint64_t lanes_popcount = 0;
  std::uint64_t scalar_residue = 0;
  std::uint64_t certificate_misses = 0;

  void merge(const SweepCounters& other) noexcept {
    maxflow_calls += other.maxflow_calls;
    engine_toggles += other.engine_toggles;
    lanes_certificate += other.lanes_certificate;
    lanes_connectivity += other.lanes_connectivity;
    lanes_popcount += other.lanes_popcount;
    scalar_residue += other.scalar_residue;
    certificate_misses += other.certificate_misses;
  }

  void flush(Telemetry& telemetry) const {
    telemetry.counter(telemetry_keys::kMaxflowCalls) += maxflow_calls;
    telemetry.counter(telemetry_keys::kEngineToggles) += engine_toggles;
    telemetry.counter(telemetry_keys::kLanesWordwise) +=
        lanes_certificate + lanes_connectivity + lanes_popcount;
    telemetry.counter(telemetry_keys::kLanesCertificate) += lanes_certificate;
    telemetry.counter(telemetry_keys::kLanesConnectivity) +=
        lanes_connectivity;
    telemetry.counter(telemetry_keys::kLanesPopcount) += lanes_popcount;
    telemetry.counter(telemetry_keys::kScalarResidue) += scalar_residue;
    // Only a faulty certificate creates this series.
    if (certificate_misses != 0) {
      telemetry.counter(telemetry_keys::kCertificateMisses) +=
          certificate_misses;
    }
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
// endpoint -> T1 (index 2 + 2i). All arcs start at capacity 0;
// apply_assignment_plan sets the pristine capacities, which take effect
// at the next reset (point evaluator) or engine attach (residue engine).
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
// feasibility. The word-wide kernels read the plan directly (seed /
// target sets, anchor-cut bypass); the scalar engines apply it to a
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

// The residue engine: one persistent IncrementalMaxFlow per assignment,
// created at the first configuration the word-wide kernels leave open
// and synced along the Gray walk from then on, so a sync repairs the
// links that toggled instead of re-solving. Each verdict carries a
// certificate: the support certificate keeps a YES valid at any config
// that preserves the carrying edges; the cut certificate keeps a NO
// (the saturated cut's capacity is below the requirement) valid at any
// config that does not revive a dead crossing edge.
struct GrayEngine {
  GrayEngine(const SideProblem& side, const SuperArcPlan& plan, Mask config)
      : residual(side.view), terminals(add_side_super_arcs(residual, side)) {
    apply_assignment_plan(residual, plan);
    flow = std::make_unique<IncrementalMaxFlow>(
        residual, terminals.source, terminals.sink, plan.required, config);
    refresh();
  }

  ConfigResidual residual;
  SuperTerminals terminals;
  std::unique_ptr<IncrementalMaxFlow> flow;
  // Cached verdict for state flow->alive_mask(), with its certificates:
  bool admits = false; ///< bounded flow value >= the requirement
  Mask support = 0;    ///< side edges the cached flow routes through
  Mask cut = 0;        ///< saturated-cut crossing edges (when !admits)

  /// Re-reads the verdict and its certificates after a sync.
  void refresh() {
    admits = flow->admits();
    support = flow->support_mask();
    cut = admits ? Mask{0} : flow->cut_mask();
  }

  void collect(SweepCounters& stats) const {
    stats.maxflow_calls += flow->solver_calls();
    stats.engine_toggles += flow->toggles();
  }
};

// ---------------------------------------------------------------------------
// Bit-parallel slab sweep.
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
// bitwise identical to the paper's one-solve-per-question procedure
// (SideMaskEvaluator) — only the path to each decision, and hence
// maxflow_calls, differs.

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

// Sweeps Gray ranks [first, last] into `array` (indexed by config).
void sweep_side(const SideProblem& side, const AssignmentSet& assignments,
                Capacity d, Mask first, Mask last, std::vector<Mask>& array,
                SweepCounters& stats, const ExecContext* ctx,
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
            a.engine = std::make_unique<GrayEngine>(side, a.plan, config);
          } else {
            ++sync_ops;
            STREAMREL_TRACE_SAMPLED_SPAN(mf_span, sync_ops, "maxflow_sync",
                                         "maxflow");
            a.engine->flow->sync_to(config);
            a.engine->refresh();
          }
          WordCert cert;
          cert.admits = a.engine->admits;
          cert.mask =
              cert.admits ? a.engine->support : (a.engine->cut & ~config);
          a.bank.push(cert);
          // The fresh certificate always covers its own lane (support
          // is alive at `config`; no cut edge dead at `config` is alive
          // there). Should a faulty one miss it, the engine's verdict
          // decides the lane anyway, so the loop strictly shrinks
          // `undecided`.
          std::uint64_t w = cert_decided_lanes(cert, slabs, undecided);
          if ((w & bit(L)) == 0) {
            w |= bit(L);
            ++stats.certificate_misses;
          }
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
                                   SideArrayStats* stats,
                                   const ExecContext* ctx) {
  if (!assignments.fits_mask()) {
    throw std::invalid_argument("assignment set too large for mask bits");
  }
  const int m = side.view.num_edges();
  const Mask total = Mask{1} << m;

  TraceSpan sweep_span("build_side_array", "sweep");
  sweep_span.arg("side", side.is_source_side ? "s" : "t")
      .arg("links", static_cast<std::int64_t>(m))
      .arg("configs", static_cast<std::uint64_t>(total));

  if (ProgressReporter* progress = exec_progress(ctx)) {
    progress->add_total(static_cast<std::uint64_t>(total));
  }

  std::vector<Mask> array(static_cast<std::size_t>(total), 0);
  std::atomic<bool> aborted{false};

  // Contiguous, Gray-aligned shards: each shard owns one rank range, so
  // its Gray walk is a single contiguous path. The shard geometry is
  // FIXED by the instance size (never by the thread count), so the
  // per-shard counters — and their shard-order merge below — are
  // identical whether the sweep runs on 1 thread or 64.
  const Mask shard_count =
      total < 1024 ? Mask{1} : std::min<Mask>(Mask{32}, total >> 10);
  const Mask chunk = total / shard_count;
  std::vector<SweepCounters> shard_stats(static_cast<std::size_t>(shard_count));
  std::vector<double> shard_ms(static_cast<std::size_t>(shard_count), 0.0);
  const auto run_shard = [&](Mask i) {
    const Mask first = i * chunk;
    const Mask last = i + 1 == shard_count ? total - 1 : first + chunk - 1;
    TraceSpan shard_span;  // one span per shard of a sharded sweep
    if (shard_count > 1 && trace_enabled()) {
      shard_span.begin("side_sweep_shard", "sweep");
    }
    shard_span.arg("shard", static_cast<std::int64_t>(i))
        .arg("ranks", static_cast<std::uint64_t>(last - first + 1));
    const auto t0 = std::chrono::steady_clock::now();
    sweep_side(side, assignments, demand_rate, first, last, array,
               shard_stats[static_cast<std::size_t>(i)], ctx, aborted);
    shard_ms[static_cast<std::size_t>(i)] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };
  if (shard_count == 1) {
    run_shard(0);
  } else {
#ifdef _OPENMP
    const int threads = static_cast<int>(std::min<Mask>(
        static_cast<Mask>(exec_resolved_threads(ctx)), shard_count));
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
#endif
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(shard_count);
         ++i) {
      run_shard(static_cast<Mask>(i));
    }
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw ExecInterrupted{ctx->stop_status()};
  }
  if (stats) {
    SweepCounters local;
    for (const SweepCounters& s : shard_stats) local.merge(s);
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
