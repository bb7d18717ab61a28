#include "streamrel/core/query_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "streamrel/reliability/bounds.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

bool same_search_options(const PartitionSearchOptions& a,
                         const PartitionSearchOptions& b) {
  return a.max_k == b.max_k && a.max_side_edges == b.max_side_edges &&
         a.enumeration.max_size == b.enumeration.max_size &&
         a.enumeration.max_branch_nodes ==
             b.enumeration.max_branch_nodes &&
         a.enumeration.max_results == b.enumeration.max_results;
}

/// Applies the overrides to the network for the duration of one facade
/// fallback (or bounds) call, restoring the original probabilities on
/// every exit path.
class OverrideGuard {
 public:
  OverrideGuard(FlowNetwork& net, std::span<const ProbOverride> overrides)
      : net_(net) {
    saved_.reserve(overrides.size());
    for (const ProbOverride& o : overrides) {
      if (!net_.valid_edge(o.edge)) {
        throw std::invalid_argument("override edge out of range");
      }
      saved_.emplace_back(o.edge, net_.edge(o.edge).failure_prob);
      net_.set_failure_prob(o.edge, o.failure_prob);
    }
  }
  ~OverrideGuard() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      net_.set_failure_prob(it->first, it->second);
    }
  }
  OverrideGuard(const OverrideGuard&) = delete;
  OverrideGuard& operator=(const OverrideGuard&) = delete;

 private:
  FlowNetwork& net_;
  std::vector<std::pair<EdgeId, double>> saved_;
};

}  // namespace

QuerySession::QuerySession(FlowNetwork net, QueryCacheOptions cache)
    : net_(std::move(net)), cache_options_(cache) {}

QuerySession::QuerySession(FlowNetwork net,
                           std::shared_ptr<const CompiledNetwork> warm_snapshot,
                           QueryCacheOptions cache)
    : net_(std::move(net)),
      snapshot_(std::move(warm_snapshot)),
      cache_options_(cache) {
  if (snapshot_ && (snapshot_->num_nodes() != net_.num_nodes() ||
                    snapshot_->num_edges() != net_.num_edges())) {
    throw std::invalid_argument(
        "warm snapshot disagrees with network on shape");
  }
}

void QuerySession::bump_epoch() {
  Telemetry& cache = telemetry_.child("cache");
  cache.counter(telemetry_keys::kCacheInvalidations) += 1;
  cache.counter(telemetry_keys::kCacheInvalidationsFull) += lru_.size();
  snapshot_.reset();  // the next query mints a fresh structure identity
  partitions_.clear();
  assignments_.clear();
  lru_.clear();
  mask_index_.clear();
  failed_.clear();
  kept_.clear();
  kept_index_.clear();
}

DeltaOutcome QuerySession::apply_delta(const NetworkDelta& delta) {
  TraceSpan span("session_delta", "cache");
  DeltaOutcome out;
  out.applied = delta.classify();
  span.arg("class", to_string(out.applied));

  if (out.applied == DeltaClass::kTopology) {
    // Validates the whole batch before any mutation; the old shape is
    // dead, so every structural layer flushes (bump_epoch counts the
    // dropped entries as full invalidations).
    DeltaApplication app = apply_delta_in_place(net_, delta);
    out.node_map = std::move(app.node_map);
    out.edge_map = std::move(app.edge_map);
    out.entries_full = lru_.size();
    bump_epoch();
    return out;
  }

  // Probability / capacity deltas keep every id. The snapshot patch
  // validates the whole batch before anything moves, so a bad edit leaves
  // network and caches untouched. Probability deltas share the whole
  // Structure (same id); capacity deltas share the Topology block and
  // mint a successor id journaled against the parent.
  CompiledDelta patched = snapshot()->apply_delta(delta);
  snapshot_ = std::move(patched.snapshot);
  for (const NetworkDelta::ProbEdit& e : delta.prob_edits) {
    net_.set_failure_prob(e.edge, e.failure_prob);
  }
  for (const NetworkDelta::CapacityEdit& e : delta.capacity_edits) {
    net_.set_capacity(e.edge, e.capacity);
  }
  out.node_map = std::move(patched.node_map);
  out.edge_map = std::move(patched.edge_map);

  Telemetry& cache = telemetry_.child("cache");
  if (out.applied == DeltaClass::kProbabilityOnly) {
    // Every structural artifact survives; only accumulations change.
    out.entries_survived = lru_.size();
    out.partitions_survived = partitions_.size();
    out.assignments_survived = assignments_.size();
    cache.counter(telemetry_keys::kCacheSurvived) += lru_.size();
    return out;
  }

  // Capacity-only: cut-scoped invalidation over the touched edges.
  cache.counter(telemetry_keys::kCacheInvalidations) += 1;
  invalidate_capacity_scoped(patched.touched_edges, out);
  cache.counter(telemetry_keys::kCacheInvalidationsFull) += out.entries_full;
  cache.counter(telemetry_keys::kCacheInvalidationsPartial) +=
      out.entries_partial;
  cache.counter(telemetry_keys::kCacheSurvived) += out.entries_survived;
  // Structural failures (assignment blow-ups) depend on crossing
  // capacities; re-decide them against the new structure.
  failed_.clear();
  span.arg("full", out.entries_full)
      .arg("partial", out.entries_partial)
      .arg("survived", out.entries_survived);
  return out;
}

void QuerySession::invalidate_capacity_scoped(std::span<const EdgeId> touched,
                                              DeltaOutcome& out) {
  // A pending side dies when the touched set reaches its partition's
  // crossing (the assignment set it was swept against changes). A touch
  // inside a side does not kill it: the next rebuild compares its
  // capacities with the new snapshot's and patches what moved, so
  // successive deltas compose.
  const auto crossed = [&](const KeptSides& kept) {
    for (const EdgeId e : touched) {
      for (const EdgeId crossing : kept.crossing_edges) {
        if (crossing == e) return true;
      }
    }
    return false;
  };
  for (auto it = kept_.begin(); it != kept_.end();) {
    if (crossed(it->second)) {
      kept_index_.erase(it->first);
      it = kept_.erase(it);
    } else {
      ++it;
    }
  }

  // Sides kept by this delta, most recently used entry first.
  std::vector<std::pair<ArtifactKey, KeptSides>> kept;
  // Classify every cached entry by where the touched edges fall. Every
  // edge lies in exactly one of side_s / side_t / crossing for any
  // partition, so the entry's own views decide. (Entries built while the
  // side views were empty — zero-assignment decompositions — classify
  // every touch as crossing and drop, which is conservative but safe.)
  for (auto it = lru_.begin(); it != lru_.end();) {
    const ArtifactKey key = it->first;
    const ArtifactEntry& entry = *it->second;
    bool in_s = false;
    bool in_t = false;
    bool in_crossing = false;
    const auto& to_s = entry.artifacts.side_s.view.edge_to_view();
    const auto& to_t = entry.artifacts.side_t.view.edge_to_view();
    for (const EdgeId e : touched) {
      const auto i = static_cast<std::size_t>(e);
      if (i < to_s.size() && to_s[i] != kInvalidEdge) {
        in_s = true;
      } else if (i < to_t.size() && to_t[i] != kInvalidEdge) {
        in_t = true;
      } else {
        in_crossing = true;
      }
    }
    if (!in_s && !in_t && !in_crossing) {
      out.entries_survived += 1;  // empty touched set
      ++it;
      continue;
    }
    if (in_crossing) {
      // The cut itself was crossed: the assignment set (a function of
      // crossing capacities) is dead, and both side arrays were swept
      // against it. (The standalone sweep below catches assignment sets
      // whose mask entry is already gone; erasing here as well keeps the
      // conservative empty-side-view classification authoritative.)
      assignments_.erase(key);
      out.entries_full += 1;
    } else {
      // Only side links moved: keep both sides for the next rebuild. An
      // untouched side is adopted verbatim, a touched one patched from
      // its old table (its side problem pins the old capacities). The
      // entry counts as partial when one side survives verbatim.
      kept.emplace_back(
          key, KeptSides{{entry.artifacts.side_s, entry.artifacts.array_s},
                         {entry.artifacts.side_t, entry.artifacts.array_t},
                         entry.choice.partition.crossing_edges});
      (in_s != in_t ? out.entries_partial : out.entries_full) += 1;
    }
    mask_index_.erase(key);
    it = lru_.erase(it);
  }
  // Least recently used first, so that the store keeps the mask LRU's
  // order and a full store gives up the least recently used sides.
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    keep_sides(it->first, std::move(it->second));
  }

  // Assignment sets outlive their mask entries (layer 2 survives layer-3
  // evictions), so they must be swept against the touched set on their
  // own: each key names a partition candidate, and its assignment set
  // dies when the touched edges reach that candidate's crossing. Without
  // this, a crossing-capacity edit arriving while the mask entry is
  // absent (evicted, or dropped by an earlier delta) would leave a stale
  // assignment set to be adopted by the next rebuild.
  for (auto it = assignments_.begin(); it != assignments_.end();) {
    const AssignmentKey& akey = it->first;
    const auto pit =
        partitions_.find({std::get<0>(akey), std::get<1>(akey)});
    const auto candidate = static_cast<std::size_t>(std::get<2>(akey));
    bool dead = true;  // no candidate to check against: drop, conservatively
    if (pit != partitions_.end() &&
        candidate < pit->second.candidates.size()) {
      const std::vector<EdgeId>& crossing =
          pit->second.candidates[candidate].partition.crossing_edges;
      dead = false;
      for (const EdgeId e : touched) {
        if (std::find(crossing.begin(), crossing.end(), e) !=
            crossing.end()) {
          dead = true;
          break;
        }
      }
    }
    it = dead ? assignments_.erase(it) : std::next(it);
  }

  // Partitions survive every capacity edit (candidate cuts are
  // capacity-independent); only their cached stats re-sum the new
  // crossing capacities, keeping reported stats identical to a cold
  // search on the edited network.
  for (auto& [pkey, pentry] : partitions_) {
    for (PartitionChoice& choice : pentry.candidates) {
      choice.stats =
          analyze_partition(net_, pkey.first, pkey.second, choice.partition);
    }
    out.partitions_survived += 1;
  }
  out.assignments_survived = assignments_.size();
}

Telemetry& QuerySession::layer_counters(std::string_view layer) {
  return telemetry_.child("cache").child(layer);
}

const std::shared_ptr<const CompiledNetwork>& QuerySession::snapshot() {
  if (!snapshot_) snapshot_ = net_.compile();
  return snapshot_;
}

std::uint64_t QuerySession::cache_hits() const {
  std::uint64_t total = 0;
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    for (const auto& [name, layer] : cache->children()) {
      total += layer.counter_or(telemetry_keys::kCacheHits);
    }
  }
  return total;
}

std::uint64_t QuerySession::cache_misses() const {
  std::uint64_t total = 0;
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    for (const auto& [name, layer] : cache->children()) {
      total += layer.counter_or(telemetry_keys::kCacheMisses);
    }
  }
  return total;
}

std::uint64_t QuerySession::cache_evictions() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    if (const Telemetry* masks = cache->find_child("masks")) {
      return masks->counter_or(telemetry_keys::kCacheEvictions);
    }
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidations);
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations_full() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidationsFull);
  }
  return 0;
}

std::uint64_t QuerySession::cache_invalidations_partial() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheInvalidationsPartial);
  }
  return 0;
}

std::uint64_t QuerySession::cache_survived() const {
  if (const Telemetry* cache = telemetry_.find_child("cache")) {
    return cache->counter_or(telemetry_keys::kCacheSurvived);
  }
  return 0;
}

void QuerySession::set_cache_budget(std::size_t max_mask_tables) {
  cache_options_.max_mask_tables = max_mask_tables;
  while (lru_.size() > std::max<std::size_t>(cache_options_.max_mask_tables,
                                             1)) {
    layer_counters("masks").counter(telemetry_keys::kCacheEvictions) += 1;
    mask_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  trim_kept_sides();
}

void QuerySession::keep_sides(const ArtifactKey& key, KeptSides sides) {
  if (const auto it = kept_index_.find(key); it != kept_index_.end()) {
    kept_.erase(it->second);
  }
  kept_.emplace_front(key, std::move(sides));
  kept_index_[key] = kept_.begin();
  trim_kept_sides();
}

void QuerySession::trim_kept_sides() {
  while (kept_.size() >
         std::max<std::size_t>(cache_options_.max_mask_tables, 1)) {
    kept_index_.erase(kept_.back().first);
    kept_.pop_back();
  }
}

bool QuerySession::cacheable(const FlowDemand& demand,
                             const SolveOptions& options) const {
  if (options.method != Method::kAuto &&
      options.method != Method::kBottleneck) {
    return false;
  }
  if (options.method == Method::kAuto && options.use_reductions &&
      demand.rate == 1) {
    // The facade runs the series/parallel reduction preprocessing for
    // undirected rate-1 demands, solving on a REWRITTEN network; those
    // queries are delegated wholesale so session answers stay bitwise
    // equal to facade answers.
    bool undirected = true;
    for (const Edge& e : net_.edges()) undirected &= !e.directed();
    if (undirected) return false;
  }
  return true;
}

const QuerySession::PartitionEntry& QuerySession::partition_candidates(
    const FlowDemand& demand, const SolveOptions& options,
    const ExecContext* ctx) {
  const PartitionKey key{demand.source, demand.sink};
  const auto it = partitions_.find(key);
  if (it != partitions_.end() &&
      same_search_options(it->second.options_used, options.partition_search)) {
    layer_counters("partitions").counter(telemetry_keys::kCacheHits) += 1;
    return it->second;
  }
  layer_counters("partitions").counter(telemetry_keys::kCacheMisses) += 1;
  PartitionEntry entry;
  entry.options_used = options.partition_search;
  entry.candidates = find_candidate_partitions(
      net_, demand.source, demand.sink, options.partition_search, ctx);
  return partitions_.insert_or_assign(key, std::move(entry)).first->second;
}

std::shared_ptr<const QuerySession::ArtifactEntry> QuerySession::artifact_entry(
    const FlowDemand& demand, int candidate_index,
    const PartitionChoice& choice, const SolveOptions& options,
    const ExecContext* ctx, SolveStatus* stop, Telemetry* built) {
  *stop = SolveStatus::kExact;
  const ArtifactKey key{demand.source,
                        demand.sink,
                        candidate_index,
                        demand.rate,
                        options.bottleneck.assignments.mode,
                        options.bottleneck.assignments.max_assignments};

  const auto hit = mask_index_.find(key);
  if (hit != mask_index_.end()) {
    if (hit->second->second->structure_id == snapshot()->structure_id()) {
      layer_counters("masks").counter(telemetry_keys::kCacheHits) += 1;
      lru_.splice(lru_.begin(), lru_, hit->second);  // touch
      return hit->second->second;
    }
    // Built against a different structure. Session edits cannot get here
    // (capacity/topology edits flush the cache; probability edits keep
    // the structure id), but never serve a stale structure.
    lru_.erase(hit->second);
    mask_index_.erase(hit);
  }
  if (failed_.count(key) != 0) {
    // Structural failures are deterministic per epoch: answer from the
    // negative cache instead of re-running the doomed enumeration.
    layer_counters("masks").counter(telemetry_keys::kCacheHits) += 1;
    throw std::invalid_argument("candidate previously failed for this demand");
  }
  layer_counters("masks").counter(telemetry_keys::kCacheMisses) += 1;

  auto entry = std::make_shared<ArtifactEntry>();
  entry->choice = choice;
  try {
    // Layer 2: the assignment set survives mask-table evictions, so a
    // rebuilt table skips the enumeration.
    std::shared_ptr<const AssignmentSet> assignments;
    const auto ait = assignments_.find(key);
    if (ait != assignments_.end()) {
      layer_counters("assignments").counter(telemetry_keys::kCacheHits) += 1;
      assignments = ait->second;
    } else {
      layer_counters("assignments").counter(telemetry_keys::kCacheMisses) += 1;
      assignments = std::make_shared<AssignmentSet>(enumerate_assignments(
          net_, choice.partition, demand.rate, options.bottleneck.assignments));
      assignments_.emplace(key, assignments);
    }
    // Cut-scoped repair: a capacity delta confined to the sides left
    // this entry's old sides behind. The build adopts an untouched side
    // verbatim and patches a touched one from its old table, bitwise-equal
    // to rebuilding because side arrays are deterministic in their inputs
    // and monotone in capacity. A stopped build leaves them for the next
    // attempt.
    const auto kit = kept_index_.find(key);
    KeptSides* kept = kit != kept_index_.end() ? &kit->second->second : nullptr;
    entry->artifacts = build_bottleneck_artifacts(
        net_, demand, choice.partition, options.bottleneck, ctx,
        assignments.get(), snapshot(), kept ? &kept->s : nullptr,
        kept ? &kept->t : nullptr);
    if (kept && entry->artifacts.usable()) {
      Telemetry& masks = layer_counters("masks");
      for (const std::string_view key_name :
           {telemetry_keys::kSideRepairs, telemetry_keys::kSidePatches}) {
        if (const auto n = entry->artifacts.telemetry.counter_or(key_name)) {
          masks.counter(key_name) += n;
        }
      }
      kept_.erase(kit->second);
      kept_index_.erase(kit);
    }
    entry->structure_id = snapshot()->structure_id();
  } catch (const std::invalid_argument&) {
    failed_.insert(key);
    throw;
  }
  if (!entry->artifacts.usable()) {
    *stop = entry->artifacts.status;
    return nullptr;  // interrupted builds are never cached
  }
  // The build's counters go to the query that caused it; the cached
  // entry keeps none, so a hit reports no build work.
  *built = std::move(entry->artifacts.telemetry);

  lru_.emplace_front(key, std::move(entry));
  mask_index_[key] = lru_.begin();
  while (lru_.size() > std::max<std::size_t>(cache_options_.max_mask_tables,
                                             1)) {
    layer_counters("masks").counter(telemetry_keys::kCacheEvictions) += 1;
    mask_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return lru_.front().second;
}

QuerySession::PreparedQuery QuerySession::prepare_cached(
    const FlowDemand& demand, const SolveOptions& options, ExecContext& ctx) {
  PreparedQuery prepared;
  if (!cacheable(demand, options)) return prepared;
  net_.check_demand(demand);

  const PartitionEntry* entry = nullptr;
  try {
    entry = &partition_candidates(demand, options, &ctx);
  } catch (const ExecInterrupted& stop) {
    prepared.bottleneck_path = true;
    prepared.stop = stop.status;
    return prepared;
  }

  // The BottleneckEngine candidate walk, byte for byte: best candidate
  // first, worthwhile unless explicitly requested, assignment blow-ups
  // and mask overflows move on to the next candidate.
  bool overflowed = false;
  for (std::size_t i = 0; i < entry->candidates.size(); ++i) {
    const PartitionChoice& choice = entry->candidates[i];
    const int max_side = std::max(choice.stats.edges_s, choice.stats.edges_t);
    const bool worthwhile =
        max_side + choice.stats.k < net_.num_edges() || !net_.fits_mask();
    if (options.method != Method::kBottleneck && !worthwhile) break;
    if (choice.stats.edges_s > kMaxMaskBits ||
        choice.stats.edges_t > kMaxMaskBits ||
        choice.stats.k > kMaxMaskBits) {
      // Mirrors the mask-width pre-check in build_bottleneck_artifacts
      // (same stats, so the same verdict) without paying for the
      // assignment enumeration first.
      overflowed = true;
      continue;
    }
    SolveStatus stop = SolveStatus::kExact;
    std::shared_ptr<const ArtifactEntry> artifacts;
    try {
      artifacts = artifact_entry(demand, static_cast<int>(i), choice, options,
                                 &ctx, &stop, &prepared.build_telemetry);
    } catch (const std::invalid_argument&) {
      continue;
    }
    prepared.bottleneck_path = true;
    prepared.partition = choice;
    if (!artifacts) {
      prepared.stop = stop;
    } else {
      prepared.entry = std::move(artifacts);
      prepared.snapshot = snapshot();
    }
    return prepared;
  }

  if (overflowed) {
    if (options.method == Method::kBottleneck) {
      // An explicit request reports the capability limit as a status,
      // exactly like the engine.
      prepared.bottleneck_path = true;
      prepared.stop = SolveStatus::kMaskOverflow;
      return prepared;
    }
    // kAuto: fall through to the facade, whose chain retries the
    // bottleneck engine (reaching the same verdict) and then moves on to
    // a non-enumerating baseline — bitwise equal to the cold path.
    return prepared;
  }
  if (options.method == Method::kBottleneck) {
    throw std::invalid_argument(
        "no usable bottleneck partition found for this network");
  }
  return prepared;  // kAuto: facade fallback runs the baseline chain
}

void QuerySession::validate_overrides(
    std::span<const ProbOverride> overrides) const {
  for (const ProbOverride& o : overrides) {
    if (!net_.valid_edge(o.edge)) {
      throw std::invalid_argument("override edge out of range");
    }
    if (!(o.failure_prob >= 0.0) || !(o.failure_prob < 1.0)) {
      throw std::invalid_argument("override probability not in [0,1)");
    }
  }
}

ExecContext& QuerySession::context_for(const SolveOptions& options,
                                       ExecContext& local) {
  if (options.context) return *options.context;
  if (options.deadline_ms > 0.0) local.set_deadline_ms(options.deadline_ms);
  local.max_threads = options.max_threads;
  return local;
}

QuerySession::PreparedQuery QuerySession::prepare(
    const FlowDemand& demand, const SolveOptions& options,
    std::span<const ProbOverride> overrides, ExecContext& ctx) {
  validate_overrides(overrides);
  telemetry_.counter(telemetry_keys::kQueries) += 1;
  TraceSpan span("query_prepare", "cache");
  // Annotate the span with the cache traffic THIS query caused: the
  // per-layer hit/miss counters are cheap to aggregate and only read when
  // a trace is actually being recorded.
  const std::uint64_t hits = span.active() ? cache_hits() : 0;
  const std::uint64_t misses = span.active() ? cache_misses() : 0;
  PreparedQuery prepared = prepare_cached(demand, options, ctx);
  if (span.active()) {
    span.arg("cache_hits", cache_hits() - hits)
        .arg("cache_misses", cache_misses() - misses)
        .arg("bottleneck_path", prepared.bottleneck_path);
  }
  if (!prepared.bottleneck_path) {
    telemetry_.counter(telemetry_keys::kFallbackSolves) += 1;
  }
  return prepared;
}

SolveReport QuerySession::accumulate(const PreparedQuery& prepared,
                                     const SolveOptions& options,
                                     std::span<const ProbOverride> overrides,
                                     const ExecContext* ctx) const {
  SolveReport report;
  report.method_used = Method::kBottleneck;
  report.engine = "bottleneck";
  report.partition = prepared.partition;
  if (prepared.stop != SolveStatus::kExact) {
    report.result.status = prepared.stop;
    return report;
  }
  TraceSpan span("query_accumulate", "cache");
  span.arg("overrides", static_cast<std::uint64_t>(overrides.size()));
  const BottleneckPartition& partition = prepared.partition->partition;
  const BottleneckArtifacts& artifacts = prepared.entry->artifacts;
  BottleneckProbabilities probs = gather_bottleneck_probabilities(
      prepared.snapshot->failure_probs(), partition, artifacts);
  for (const ProbOverride& o : overrides) {
    // Each edge lives in exactly one place: a side subgraph or the
    // crossing set.
    for (std::size_t j = 0; j < partition.crossing_edges.size(); ++j) {
      if (partition.crossing_edges[j] == o.edge) {
        probs.crossing[j] = o.failure_prob;
      }
    }
    const auto place_side = [&](const SideProblem& side,
                                std::vector<double>& out) {
      const auto& to_view = side.view.edge_to_view();
      const auto idx = static_cast<std::size_t>(o.edge);
      if (idx < to_view.size() && to_view[idx] != kInvalidEdge) {
        out[static_cast<std::size_t>(to_view[idx])] = o.failure_prob;
      }
    };
    place_side(artifacts.side_s, probs.side_s);
    place_side(artifacts.side_t, probs.side_t);
  }
  report.result = accumulate_bottleneck(artifacts, probs,
                                        options.bottleneck.accumulation, ctx);
  report.result.telemetry = prepared.build_telemetry;
  return report;
}

void QuerySession::finish(SolveReport& report, const FlowDemand& demand,
                          const SolveOptions& options,
                          std::span<const ProbOverride> overrides,
                          ExecContext& ctx) {
  if (!report.exact() && !report.bounds) {
    const OverrideGuard guard(net_, overrides);
    report.bounds = reliability_bounds(net_, demand, options.bounds);
  }
  ctx.telemetry.merge(report.result.telemetry);
}

SolveReport QuerySession::solve_fallback(const FlowDemand& demand,
                                         const SolveOptions& options,
                                         std::span<const ProbOverride> overrides,
                                         ExecContext& ctx) {
  TraceSpan span("query_fallback", "cache");
  span.arg("method", to_string(options.method));
  const OverrideGuard guard(net_, overrides);
  SolveOptions forwarded = options;
  forwarded.context = &ctx;
  return compute_reliability(net_, demand, forwarded);
}

SolveReport QuerySession::solve(const FlowDemand& demand,
                                const SolveOptions& options) {
  return solve(demand, options, {});
}

SolveReport QuerySession::solve(const FlowDemand& demand,
                                const SolveOptions& options,
                                std::span<const ProbOverride> overrides) {
  ExecContext local;
  ExecContext& ctx = context_for(options, local);
  const PreparedQuery prepared = prepare(demand, options, overrides, ctx);
  if (!prepared.bottleneck_path) {
    return solve_fallback(demand, options, overrides, ctx);
  }
  SolveReport report = accumulate(prepared, options, overrides, &ctx);
  finish(report, demand, options, overrides, ctx);
  return report;
}

}  // namespace streamrel
