#pragma once
// QuerySession — the stateful serving layer: many reliability queries
// against ONE overlay network, amortizing the exponential structural work
// across them.
//
// The side arrays (§III-C) record which assignments are feasible in each
// link-failure configuration — a property of topology and capacities
// only; link probabilities p(e) enter solely in the final accumulation
// step. A session therefore caches three layers of structural artifacts:
//
//   1. bottleneck decompositions, keyed by (s, t) + search options;
//   2. assignment sets, keyed by (cut, d);
//   3. side-array mask tables, keyed by (side subgraph, cut capacities,
//      d) — LRU-bounded, since one table holds 2^|E_side| configurations.
//      Tables rest as SlabMaskTable (a palette of distinct masks and a
//      one-byte index per configuration, in configuration order), the
//      layout the fold consumes with unit stride.
//
// A probability-only "what-if" query (perturbed p(e) after churn, same
// topology) then skips straight to the accumulation: two folds (a
// prefix-product table and a few vectorized multiplies per
// configuration) plus 2^k inclusion–exclusion terms, no max-flow.
//
// apply_delta(NetworkDelta) is the one way to edit a session. It
// classifies the delta and invalidates CUT-SCOPED, decided per edit
// class × artifact layer:
//
//   * probability deltas flush nothing — the snapshot patch shares the
//     whole structure and keeps its id, so "this cache entry is still
//     valid" is literally a structure-identity check;
//   * capacity deltas keep every partition (candidate cuts are
//     capacity-independent; their stats are cheaply re-analyzed), keep
//     assignment sets whose crossing was not touched,
//     and classify each mask-table entry by WHERE the touched edges fall:
//     a touch in the crossing drops the entry and its assignment set; a
//     touch confined to the sides drops the entry but keeps both of its
//     side arrays for the next rebuild, which compares each side's old
//     capacities with the new ones: an untouched side is SALVAGED
//     (adopted verbatim, no sweep), a touched one PATCHED (its old table
//     seeds the sweep, which re-queries only the configurations the
//     capacity changes can flip; see build_side_array). Kept sides
//     compose across successive side deltas and die when a delta reaches
//     the crossing;
//   * topology deltas flush all three layers (the old shape is dead).
//
//     edit reaches    | partitions | assignments | side arrays
//     probability     | kept       | kept        | kept
//     one side        | kept       | kept        | touched patched, other salvaged
//     both sides      | kept       | kept        | both patched
//     crossing        | kept       | dropped     | both dropped
//     topology        | flushed    | flushed     | flushed
//
// The successor snapshot comes from CompiledNetwork::apply_delta — CSR
// patches sharing untouched blocks — so the session's snapshot always
// mirrors its network, and the accumulation reads probabilities from the
// snapshot its query pinned. Telemetry splits invalidation outcomes into
// full / partial / survived per-entry counters.
//
// Results are bitwise-identical to a cold compute_reliability call on
// the same network — the session reuses the facade's arithmetic, it
// never approximates.
//
// Thread-safety: one session serves one thread at a time; concurrent
// READ access to the cached artifacts is safe and BatchEvaluator uses it
// to accumulate independent queries in parallel under the ExecContext
// thread policy.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/reliability_facade.hpp"
#include "streamrel/cuts/partition_search.hpp"
#include "streamrel/graph/delta.hpp"

namespace streamrel {

/// One probability override: this query sees `edge` failing with
/// probability `failure_prob` instead of the session network's value.
struct ProbOverride {
  EdgeId edge = kInvalidEdge;
  double failure_prob = 0.0;
};

struct QueryCacheOptions {
  /// LRU bound on cached mask-table entries (one entry holds both side
  /// arrays of one decomposition at one demand).
  std::size_t max_mask_tables = 64;
};

/// QuerySession::apply_delta result: what the delta did to the session's
/// network (id translations, as in DeltaApplication) and to its caches
/// (per-entry invalidation outcome).
struct DeltaOutcome {
  DeltaClass applied = DeltaClass::kProbabilityOnly;
  /// Old id -> new id; kInvalidNode / kInvalidEdge for removed entities.
  /// Identity maps for non-topology deltas.
  std::vector<NodeId> node_map;
  std::vector<EdgeId> edge_map;
  /// Mask-table entries dropped with no side kept verbatim (crossing
  /// touched, a topology flush, or both sides touched — those two are
  /// kept to be patched).
  std::uint64_t entries_full = 0;
  /// Entries dropped with one side array salvaged for the next rebuild
  /// (the touched side is kept to be patched).
  std::uint64_t entries_partial = 0;
  /// Entries that remained valid (probability-only deltas).
  std::uint64_t entries_survived = 0;
  /// Partition entries kept (always all of them for non-topology deltas).
  std::uint64_t partitions_survived = 0;
  /// Assignment sets kept (crossing untouched).
  std::uint64_t assignments_survived = 0;
};

class QuerySession {
 public:
  /// The session owns its copy of the network; apply_delta is the only
  /// way to edit it, so the caches see every change.
  explicit QuerySession(FlowNetwork net, QueryCacheOptions cache = {});

  /// Warm restore: adopts a pre-compiled snapshot CONSISTENT with `net`
  /// (the persist layer's replay product — builder and snapshot replayed
  /// through the same deltas), skipping the lazy first compile so a
  /// restored session answers its first query against the exact restored
  /// arrays. Throws std::invalid_argument when net and snapshot disagree
  /// on node or edge count.
  QuerySession(FlowNetwork net,
               std::shared_ptr<const CompiledNetwork> warm_snapshot,
               QueryCacheOptions cache = {});

  const FlowNetwork& network() const noexcept { return net_; }

  // --- edits -------------------------------------------------------

  /// Applies one edit batch to the session network and snapshot (via
  /// CompiledNetwork::apply_delta) and invalidates the caches CUT-SCOPED:
  /// see the header comment for the edit class × artifact layer matrix.
  /// Atomic: an invalid delta throws std::invalid_argument and leaves
  /// network and caches untouched.
  DeltaOutcome apply_delta(const NetworkDelta& delta);

  // --- queries -----------------------------------------------------

  /// Same contract and bitwise-same answer as compute_reliability on
  /// network(), but served through the caches when the method resolves
  /// to the bottleneck decomposition.
  SolveReport solve(const FlowDemand& demand, const SolveOptions& options = {});

  /// What-if form: `overrides` replace failure probabilities for THIS
  /// query only; the session network is left untouched.
  SolveReport solve(const FlowDemand& demand, const SolveOptions& options,
                    std::span<const ProbOverride> overrides);

  // --- observability -----------------------------------------------

  /// Session-lifetime tree: query counters at the root, cache
  /// hit/miss/evict and side reuse counters under the "cache" child (one
  /// grandchild per layer). Engine work is not aggregated here: each
  /// answer carries the work its own solve did (a cache hit none).
  /// Deterministic given the query sequence.
  const Telemetry& telemetry() const noexcept { return telemetry_; }

  std::uint64_t cache_hits() const;        ///< total across the three layers
  std::uint64_t cache_misses() const;      ///< total across the three layers
  std::uint64_t cache_evictions() const;   ///< mask-table LRU evictions
  std::uint64_t cache_invalidations() const;  ///< invalidation EVENTS
  /// Per-entry invalidation outcomes (see DeltaOutcome).
  std::uint64_t cache_invalidations_full() const;
  std::uint64_t cache_invalidations_partial() const;
  std::uint64_t cache_survived() const;

  // --- cache budget (daemon memory-cap rebalancing) ----------------

  /// Re-bounds the mask-table LRU, evicting (oldest first, counted as
  /// kCacheEvictions) until the cache fits. The daemon's TenantSession
  /// calls this to apply the share the registry publishes under the
  /// global memory cap.
  void set_cache_budget(std::size_t max_mask_tables);
  std::size_t cache_budget() const { return cache_options_.max_mask_tables; }
  std::size_t cached_mask_tables() const { return lru_.size(); }
  /// Resident bytes of the cached slab mask tables (index columns plus
  /// palettes, the dominant cache memory), for budget-vs-usage gauges in
  /// the daemon's metrics.
  std::size_t cached_mask_bytes() const {
    std::size_t bytes = 0;
    for (const auto& [key, entry] : lru_) {
      bytes += entry->artifacts.array_s.bytes() +
               entry->artifacts.array_t.bytes();
    }
    return bytes;
  }

 private:
  friend class BatchEvaluator;
  friend class TenantSession;

  /// (s, t, candidate index, d, assignment mode, assignment cap): one
  /// cached decomposition instance.
  using ArtifactKey =
      std::tuple<NodeId, NodeId, int, Capacity, AssignmentMode, int>;
  using AssignmentKey = ArtifactKey;
  using PartitionKey = std::pair<NodeId, NodeId>;

  struct ArtifactEntry {
    PartitionChoice choice;
    BottleneckArtifacts artifacts;
    /// Structure identity of the snapshot the artifacts were built
    /// against; a hit is only served when it matches the session's
    /// current snapshot.
    std::uint64_t structure_id = 0;
  };
  struct PartitionEntry {
    PartitionSearchOptions options_used;
    std::vector<PartitionChoice> candidates;
  };
  using LruList =
      std::list<std::pair<ArtifactKey, std::shared_ptr<const ArtifactEntry>>>;

  /// A query after the structural (cache-served) phase: either pinned
  /// artifacts ready for the probability-only accumulation, an
  /// interrupted build, or "not on the bottleneck path" (facade
  /// fallback). BatchEvaluator prepares all queries serially, then
  /// accumulates the ready ones concurrently — the shared_ptr pins keep
  /// entries alive across LRU evictions, and the pinned snapshot keeps
  /// the probabilities of the prepare's network across later deltas.
  struct PreparedQuery {
    std::shared_ptr<const ArtifactEntry> entry;  ///< set when ready
    /// The session snapshot at prepare time (set when ready): the
    /// accumulation reads its probability column, never net_.
    std::shared_ptr<const CompiledNetwork> snapshot;
    /// Counters of the build this query ran; empty on a cache hit.
    Telemetry build_telemetry;
    std::optional<PartitionChoice> partition;
    SolveStatus stop = SolveStatus::kExact;  ///< non-exact: interrupted
    bool bottleneck_path = false;
  };

  /// True when this query shape can be served from the caches without
  /// diverging from the facade's answer.
  bool cacheable(const FlowDemand& demand, const SolveOptions& options) const;

  const PartitionEntry& partition_candidates(const FlowDemand& demand,
                                             const SolveOptions& options,
                                             const ExecContext* ctx);

  /// Layers 2+3: cached assignments + mask tables for one candidate.
  /// Returns null when the build was interrupted (status in *stop); the
  /// unusable entry is not cached. A usable fresh build moves its
  /// counters into *built; a hit leaves it alone. Throws
  /// std::invalid_argument on assignment blow-up exactly like
  /// reliability_bottleneck.
  std::shared_ptr<const ArtifactEntry> artifact_entry(
      const FlowDemand& demand, int candidate_index,
      const PartitionChoice& choice, const SolveOptions& options,
      const ExecContext* ctx, SolveStatus* stop, Telemetry* built);

  /// The structural phase: cache lookups + any cold builds. Mutates the
  /// caches; call from one thread. Throws std::invalid_argument when an
  /// explicit kBottleneck request finds no usable partition.
  PreparedQuery prepare_cached(const FlowDemand& demand,
                               const SolveOptions& options, ExecContext& ctx);

  // Every solve path — solve(), TenantSession::solve and BatchEvaluator —
  // runs the same steps: prepare (writer access), then either
  // accumulate + finish on the bottleneck path or solve_fallback.

  /// options.context when set; otherwise `local`, seeded from
  /// options.deadline_ms / options.max_threads (the facade's rule).
  static ExecContext& context_for(const SolveOptions& options,
                                  ExecContext& local);

  /// The traced prepare: checks the overrides, counts the query, runs
  /// prepare_cached under the "query_prepare" span (args: this query's
  /// cache_hits / cache_misses and bottleneck_path), and counts a
  /// fallback solve when the query leaves the bottleneck path.
  PreparedQuery prepare(const FlowDemand& demand, const SolveOptions& options,
                        std::span<const ProbOverride> overrides,
                        ExecContext& ctx);

  /// The probability-only phase: gather from the pinned snapshot +
  /// override + accumulate. Does NOT touch session state — safe to run
  /// concurrently for distinct prepared queries, and with edits. Never
  /// throws once prepare has checked the overrides.
  SolveReport accumulate(const PreparedQuery& prepared,
                         const SolveOptions& options,
                         std::span<const ProbOverride> overrides,
                         const ExecContext* ctx) const;

  /// Closes a bottleneck-path answer: reliability bounds under the
  /// query's overrides when it is not exact (the network is edited and
  /// restored around the call: writer access), then the answer's
  /// counters merged into ctx.
  void finish(SolveReport& report, const FlowDemand& demand,
              const SolveOptions& options,
              std::span<const ProbOverride> overrides, ExecContext& ctx);

  /// Facade fallback with overrides applied to (and reverted from) the
  /// session network.
  SolveReport solve_fallback(const FlowDemand& demand,
                             const SolveOptions& options,
                             std::span<const ProbOverride> overrides,
                             ExecContext& ctx);

  /// Throws std::invalid_argument on an out-of-range edge or a
  /// probability outside [0, 1).
  void validate_overrides(std::span<const ProbOverride> overrides) const;

  /// The two sides of an entry dropped by a side-only capacity delta, to
  /// be adopted or patched by the next rebuild of its key, plus the
  /// crossing-edge list of their partition (a LATER delta reaching it
  /// kills the sides before they are consumed).
  struct KeptSides {
    SideReuse s;
    SideReuse t;
    std::vector<EdgeId> crossing_edges;
  };
  using KeptList = std::list<std::pair<ArtifactKey, KeptSides>>;

  void bump_epoch();
  /// Cut-scoped invalidation for a capacity-only delta: classifies every
  /// cached mask entry by where `touched` falls (side s / side t /
  /// crossing), drops it or keeps its sides accordingly, kills kept sides
  /// whose crossing was touched, keeps partitions (stats re-analyzed) and
  /// uncrossed assignment sets. Fills the entry counters of `out`.
  void invalidate_capacity_scoped(std::span<const EdgeId> touched,
                                  DeltaOutcome& out);
  /// Stores `sides` as the newest kept sides of `key` (replacing older
  /// ones of the same key), then trims the store to the budget.
  void keep_sides(const ArtifactKey& key, KeptSides sides);
  /// Drops the oldest kept sides until the store fits max_mask_tables.
  void trim_kept_sides();
  Telemetry& layer_counters(std::string_view layer);

  /// The session's frozen snapshot, minted lazily on first use and
  /// patched by every non-topology delta (a probability delta keeps its
  /// structure id); a topology delta drops it so the next query compiles
  /// a fresh structure.
  const std::shared_ptr<const CompiledNetwork>& snapshot();

  FlowNetwork net_;
  std::shared_ptr<const CompiledNetwork> snapshot_;
  QueryCacheOptions cache_options_;
  Telemetry telemetry_;

  std::map<PartitionKey, PartitionEntry> partitions_;
  std::map<AssignmentKey, std::shared_ptr<const AssignmentSet>> assignments_;
  LruList lru_;
  std::map<ArtifactKey, LruList::iterator> mask_index_;
  /// Negative cache: candidates that failed structurally (assignment
  /// blow-up, oversized side) — deterministic per epoch, so the failed
  /// enumeration is never re-attempted on warm queries.
  std::set<ArtifactKey> failed_;
  /// Sides kept by cut-scoped invalidation, newest first, consumed by the
  /// next usable rebuild of the same key (a stopped one leaves them).
  /// Bounded by max_mask_tables like lru_: the oldest go first.
  KeptList kept_;
  std::map<ArtifactKey, KeptList::iterator> kept_index_;
};

}  // namespace streamrel
