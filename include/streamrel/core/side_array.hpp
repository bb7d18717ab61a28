#pragma once
// Side arrays (paper §III-C, Fig. 3, Example 2).
//
// For one side component (G_s or G_t) the algorithm records, for every
// failure configuration of the side's links, which assignments in D the
// configuration realizes — a |D|-bit value per configuration. Assignment
// feasibility on a side is a bounded max-flow question on the side's
// subgraph extended with super terminals:
//
//   source side, assignment a:  S0 -> s (cap d); S0 -> x_i (cap -a_i) for
//   negative entries; x_i -> T1 (cap a_i) for positive entries; realized
//   iff maxflow(S0, T1) == d + sum of negative magnitudes.
//
//   sink side: mirror image (y_i supplies for positive entries, y_i
//   demands for negative ones, t -> T1 carries d).
//
// build_side_array answers every (configuration, assignment) question of
// that procedure without asking the solver most of them. Feasibility is
// monotone in the alive set: if a configuration realizes an assignment,
// so does every superset of its alive links. So each assignment's column
// is fixed by its boundary (minimal realizing and maximal failing
// configurations), and each bounded max-flow answer comes with a
// certificate that decides a whole closure at once: a flow's support
// realizes the assignment in every configuration that keeps it alive (an
// up-set), and the dead links of a min cut below the requirement keep it
// failing in every configuration that keeps them dead (a down-set). The
// sweep visits configurations by popcount, from all links alive down to
// none, and queries only those neither closure covers yet. Every strict
// superset of a queried configuration is then decided already, so a
// queried NO is a maximal failing configuration. SideMaskEvaluator below
// is the paper's scalar procedure, one bounded max-flow per question; the
// two give identical arrays.
//
// At rest a side array is a SlabMaskTable: a palette of the distinct
// realized-assignment masks plus one small palette index per
// configuration, in configuration order, which the fold reads with unit
// stride.

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "streamrel/core/assignments.hpp"
#include "streamrel/graph/compiled.hpp"
#include "streamrel/maxflow/maxflow.hpp"
#include "streamrel/util/exec_context.hpp"
#include "streamrel/util/telemetry.hpp"

namespace streamrel {

/// One side of the decomposition as a zero-copy view over one compiled
/// snapshot: no node or edge is duplicated, only index-translation tables
/// are built, and the snapshot stays pinned for the problem's lifetime.
struct SideProblem {
  NetworkView view;          ///< side view (VIEW edge ids index masks)
  bool is_source_side = true;
  NodeId anchor = kInvalidNode;         ///< s or t, in VIEW node ids
  std::vector<NodeId> endpoints;        ///< per crossing edge: x_i / y_i, VIEW ids
};

/// Builds the side problem for the source side (s, x_i) or sink side
/// (t, y_i) of a partition over one compiled snapshot. Throws if the side
/// has more than 63 links.
SideProblem make_side_problem(std::shared_ptr<const CompiledNetwork> snapshot,
                              const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side);

/// Convenience overload compiling `net` on the spot (one snapshot per
/// call — callers building both sides should compile once and use the
/// snapshot overload).
SideProblem make_side_problem(const FlowNetwork& net, const FlowDemand& demand,
                              const BottleneckPartition& partition,
                              bool source_side);

/// Cost counters for one build_side_array run: a thin view over a
/// Telemetry subtree (per-assignment counters are merged in assignment
/// order, so they are deterministic and independent of the OpenMP thread
/// count).
struct SideArrayStats {
  Telemetry telemetry;

  /// Bounded max-flow solves: one per query of the sweep.
  std::uint64_t maxflow_calls() const {
    return telemetry.counter_or(telemetry_keys::kMaxflowCalls);
  }
  /// (configuration, assignment) decisions filled in from a certificate's
  /// closure instead of a solve: 2^m * |D| - scalar_residue().
  std::uint64_t lanes_decided_wordwise() const {
    return telemetry.counter_or(telemetry_keys::kLanesWordwise);
  }
  /// Decisions a solve made (the queries; equal to maxflow_calls()).
  std::uint64_t scalar_residue() const {
    return telemetry.counter_or(telemetry_keys::kScalarResidue);
  }
  /// Certificates that missed their own configuration: 0 unless the
  /// solve left a wrong support or cut.
  std::uint64_t certificate_misses() const {
    return telemetry.counter_or(telemetry_keys::kCertificateMisses);
  }
  /// Complete by construction: every counter this struct exposes —
  /// including the accessors above — is a view over `telemetry`, and the
  /// struct holds NO scalar members outside the telemetry tree, so
  /// merging the trees merges the whole state.
  void merge(const SideArrayStats& other) { telemetry.merge(other.telemetry); }
};

/// A side array at rest, as a palette-indexed mask column: `palette`
/// holds the distinct realized-assignment masks in first-seen
/// configuration order, and `index` holds, per configuration c, the
/// palette slot of c's mask. Sides realize few distinct masks, so the
/// index is one byte per configuration while the palette holds at most
/// 256 masks and widens to two or four bytes only for tables that need
/// it. Both the palette order and the index width follow from the masks
/// alone, so equal arrays give equal tables. This is the form
/// BottleneckArtifacts carries and QuerySession caches.
struct SlabMaskTable {
  using Index = std::variant<std::vector<std::uint8_t>,
                             std::vector<std::uint16_t>,
                             std::vector<std::uint32_t>>;

  std::vector<Mask> palette;
  Index index;
  int num_links = 0;  ///< |E_side|: size() == 2^num_links

  std::size_t size() const noexcept {
    return std::visit([](const auto& column) { return column.size(); },
                      index);
  }
  bool empty() const noexcept { return size() == 0; }
  void clear() noexcept {
    palette.clear();
    index = Index{};
    num_links = 0;
  }
  /// Resident bytes: the index column plus the palette.
  std::size_t bytes() const noexcept {
    const std::size_t width = std::visit(
        [](const auto& column) { return sizeof(column[0]); }, index);
    return size() * width + palette.size() * sizeof(Mask);
  }

  bool operator==(const SlabMaskTable& other) const = default;
};

/// Compresses a configuration-indexed array (array[config]) into its
/// table, and expands it back. Both directions are exact inverses.
SlabMaskTable slab_form(const std::vector<Mask>& config_indexed,
                        int num_links);
std::vector<Mask> config_form(const SlabMaskTable& table);

/// An earlier table of the same side (same topology, same assignment
/// set) and the view links whose capacity changed since it was built:
/// `raised` (U) went up, `lowered` (W) went down, to zero included.
struct SidePrior {
  const SlabMaskTable* table = nullptr;
  Mask raised = 0;
  Mask lowered = 0;

  /// No capacity changed: the table is the answer as it stands.
  bool unchanged() const noexcept { return (raised | lowered) == 0; }
};

/// The prior `table` of side `before` as seen from side `after`: U and W
/// from comparing the two views' capacities link by link. std::nullopt
/// when the two do not describe the same side (different links, anchor
/// or endpoints) or the table does not fit it.
std::optional<SidePrior> side_prior(const SideProblem& before,
                                    const SlabMaskTable& table,
                                    const SideProblem& after);

/// The paper's array: configuration c's entry is the mask of assignments
/// c realizes, for all 2^|side edges| configurations. The table is
/// assembled straight from the per-assignment columns, with the palette
/// and index width slab_form would give.
///
/// With a `prior`, the build patches that table instead of sweeping from
/// nothing. Feasibility is monotone in capacity as well as in the alive
/// set: a configuration in which no lowered link (W) is alive keeps its
/// old YES, one in which no raised link (U) is alive keeps its old NO.
/// So before any query each assignment's column is seeded with
///   YES = {c : c \ W ∈ old YES}  (old YES ∩ {c : c ∩ W = ∅}, closed
///                                 upward, as YES is an up-set),
///   NO  = old NO ∩ {c : c ∩ U = ∅},
/// and only what the seeds leave open is queried. The table equals a
/// build without the prior; the counters count the patch's own queries.
///
/// On arrays of 1024 or more configurations the assignments are swept
/// in parallel under OpenMP, one task each. A column depends on its
/// assignment alone, so the array and every counter are identical on 1
/// thread or 64; ExecContext::max_threads caps the pool. With a context,
/// the sweep polls for deadline/cancellation between popcount levels and
/// every ExecContext::kPollStride queries; a stop raises ExecInterrupted
/// (after the parallel region has joined) — callers above the engine
/// layer never see it.
SlabMaskTable build_side_array(const SideProblem& side,
                               const AssignmentSet& assignments,
                               Capacity demand_rate,
                               SideArrayStats* stats = nullptr,
                               const ExecContext* ctx = nullptr,
                               const SidePrior* prior = nullptr);

/// A side array folded into a sparse probability distribution over
/// realized-assignment masks: bucket (m, P{configurations realizing
/// exactly the set m}), sorted by mask. The accumulation step only needs
/// this. The fold walks the table's palette index in configuration
/// order. Each configuration's probability is the product of its edge
/// factors (alive ? 1 - p : p) in ascending edge order, starting from
/// 1.0. A prefix table over the low ten edges supplies most of each
/// product, so the per-configuration work is a few vectorized
/// multiplies. The probabilities then add into their palette slot's
/// bucket and into a Neumaier total, both in configuration order. Every
/// IEEE operation is fixed by the masks and the probabilities, so the
/// result is bitwise identical across thread counts, index widths and
/// host CPUs.
struct MaskDistribution {
  std::vector<std::pair<Mask, double>> buckets;
  double total = 0.0;  ///< sum of bucket probabilities (== 1 up to rounding)
};

MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table);

/// Same fold under caller-supplied failure probabilities (one per side
/// link, indexed by side.view edge id) — the probability-only "what-if"
/// path: the cached mask table is reused, only the fold reruns. Throws
/// std::invalid_argument unless there is one probability per side link
/// and the table holds 2^|side links| configurations.
MaskDistribution bucket_side_array(const SideProblem& side,
                                   const SlabMaskTable& table,
                                   std::span<const double> failure_probs);

/// Point evaluator for single side configurations: which assignments does
/// ONE failure configuration realize? The paper's scalar procedure, one
/// bounded max-flow per assignment. Used by the sampling-based hybrid
/// estimator, which cannot afford the full 2^|E_side| array, and by the
/// tests as the oracle for build_side_array. Reuses its residual graph
/// and solver across calls. The referenced side problem
/// and assignment set must outlive the evaluator.
class SideMaskEvaluator {
 public:
  SideMaskEvaluator(const SideProblem& side, const AssignmentSet& assignments,
                    Capacity demand_rate);
  ~SideMaskEvaluator();
  SideMaskEvaluator(SideMaskEvaluator&&) noexcept;
  SideMaskEvaluator& operator=(SideMaskEvaluator&&) = delete;

  /// Mask of assignments the given alive-link configuration realizes.
  Mask realized(Mask config);

  std::uint64_t maxflow_calls() const noexcept { return calls_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t calls_ = 0;
};

}  // namespace streamrel
