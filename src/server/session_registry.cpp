#include "streamrel/server/session_registry.hpp"

#include <algorithm>

#include "streamrel/util/telemetry.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

/// Writer section: holds the session lock exclusively. Entry applies a
/// budget published since the last section; exit applies one published
/// during this section, republishes stats, unlocks, and then settles a
/// target whose try_lock lost the race with this section.
class TenantSession::WriteSection {
 public:
  explicit WriteSection(TenantSession& session)
      : session_(session), lock_(session.mu_) {
    session_.apply_budget_locked();
  }
  ~WriteSection() {
    session_.apply_budget_locked();
    session_.publish_stats_locked();
    lock_.unlock();
    session_.settle_budget();
  }
  WriteSection(const WriteSection&) = delete;
  WriteSection& operator=(const WriteSection&) = delete;

 private:
  TenantSession& session_;
  std::unique_lock<std::shared_mutex> lock_;
};

/// Reader section: shared lock; on release, settles a target whose
/// try_lock failed because this reader held the lock. Const readers
/// settle too: every TenantSession is created non-const (make_shared),
/// so the cast is well defined.
class TenantSession::ReadSection {
 public:
  explicit ReadSection(const TenantSession& session)
      : session_(const_cast<TenantSession&>(session)), lock_(session.mu_) {}
  ~ReadSection() {
    lock_.unlock();
    session_.settle_budget();
  }
  ReadSection(const ReadSection&) = delete;
  ReadSection& operator=(const ReadSection&) = delete;

 private:
  TenantSession& session_;
  std::shared_lock<std::shared_mutex> lock_;
};

TenantSession::TenantSession(FlowNetwork net, FlowDemand default_demand,
                             const QueryCacheOptions& cache_options,
                             bool explicit_budget)
    : session_(std::move(net), cache_options),
      default_demand_(default_demand),
      explicit_budget_(explicit_budget),
      budget_target_(session_.cache_budget()) {
  publish_stats_locked();
}

TenantSession::TenantSession(RestoredSession restored,
                             const QueryCacheOptions& cache_options,
                             bool explicit_budget)
    : session_(std::move(restored.net), std::move(restored.snapshot),
               cache_options),
      default_demand_(restored.default_demand),
      explicit_budget_(explicit_budget),
      replayed_deltas_(restored.replayed_deltas),
      restored_(true),
      budget_target_(session_.cache_budget()) {
  publish_stats_locked();
}

void TenantSession::attach_store(std::unique_ptr<SessionStore> store) {
  const WriteSection section(*this);
  store_ = std::move(store);
}

bool TenantSession::durable() const { return stats().durable; }

StoreStatus TenantSession::checkpoint_now(std::string* error) {
  const WriteSection section(*this);
  return checkpoint_locked(error);
}

StoreStatus TenantSession::checkpoint_locked(std::string* error) {
  if (!store_) {
    if (error) *error = "no durable store attached";
    return StoreStatus::kNotFound;
  }
  // snapshot() mints the compiled form lazily — checkpointing a freshly
  // registered session doubles as warming its first compile.
  const std::shared_ptr<const CompiledNetwork>& snapshot = session_.snapshot();
  const std::optional<std::size_t> budget =
      explicit_budget_ ? std::optional<std::size_t>(session_.cache_budget())
                       : std::nullopt;
  return store_->checkpoint(*snapshot, default_demand_, budget, error);
}

SolveReport TenantSession::solve(const FlowDemand& demand,
                                 const SolveOptions& options,
                                 std::span<const ProbOverride> overrides) {
  ExecContext* ctx = options.context;
  // The service always provides the context; a bare local keeps the
  // QuerySession contract for direct (test) callers.
  ExecContext local;
  if (!ctx) {
    if (options.deadline_ms > 0.0) local.set_deadline_ms(options.deadline_ms);
    local.max_threads = options.max_threads;
    ctx = &local;
  }

  QuerySession::PreparedQuery prepared;
  SolveOptions effective = options;
  // The pending hint must be COPIED out: the member can be rewritten by
  // a concurrent apply_delta once the writer lock is released.
  std::optional<DeltaSolveHint> hint_copy;

  {
    const WriteSection section(*this);
    session_.validate_overrides(overrides);
    if (!effective.delta_hint && session_.pending_hint_) {
      hint_copy = *session_.pending_hint_;
      effective.delta_hint = &*hint_copy;
    }
    session_.telemetry_.counter(telemetry_keys::kQueries) += 1;
    {
      TraceSpan span("query_prepare", "cache");
      const std::uint64_t hits = span.active() ? session_.cache_hits() : 0;
      const std::uint64_t misses = span.active() ? session_.cache_misses() : 0;
      prepared = session_.prepare_cached(demand, effective, *ctx);
      if (span.active()) {
        span.arg("cache_hits", session_.cache_hits() - hits)
            .arg("cache_misses", session_.cache_misses() - misses)
            .arg("bottleneck_path", prepared.bottleneck_path);
      }
    }
    if (!prepared.bottleneck_path) {
      // The fallback solves against net_ (override guard mutates it):
      // stay under the writer lock for the whole solve.
      session_.telemetry_.counter(telemetry_keys::kFallbackSolves) += 1;
      return session_.solve_fallback(demand, effective, overrides, *ctx);
    }
  }

  SolveReport report;
  {
    // The warm path only reads the cached artifacts and the partition
    // entry — concurrent solves of the same tenant share this lock.
    const ReadSection section(*this);
    report = session_.finish_prepared(prepared, effective, overrides, ctx);
  }
  if (report.result.status != SolveStatus::kExact && !report.bounds) {
    const WriteSection section(*this);
    report.bounds =
        session_.bounds_with_overrides(demand, effective.bounds, overrides);
  }
  ctx->telemetry.merge(report.result.telemetry);
  return report;
}

BatchReport TenantSession::batch(std::span<const WhatIfQuery> queries,
                                 const BatchOptions& options) {
  const WriteSection section(*this);
  BatchEvaluator evaluator(session_);
  return evaluator.evaluate(queries, options);
}

DeltaOutcome TenantSession::apply_delta(const NetworkDelta& delta) {
  const WriteSection section(*this);
  const DeltaOutcome outcome = session_.apply_delta(delta);
  // Keep the default demand anchored across topology renumbering.
  if (outcome.applied == DeltaClass::kTopology) {
    const auto remap = [&outcome](NodeId id) {
      return id >= 0 && static_cast<std::size_t>(id) < outcome.node_map.size()
                 ? outcome.node_map[static_cast<std::size_t>(id)]
                 : id;
    };
    default_demand_.source = remap(default_demand_.source);
    default_demand_.sink = remap(default_demand_.sink);
  }
  if (store_) {
    // Journal inside the same writer critical section that applied the
    // delta: WAL order == application order, the property bitwise replay
    // rests on. Failures degrade durability, not availability.
    std::string err;
    if (store_->append(delta, &err) != StoreStatus::kOk) {
      ++journal_errors_;
    } else if (store_->needs_compaction() &&
               checkpoint_locked(&err) != StoreStatus::kOk) {
      ++journal_errors_;
    }
  }
  return outcome;
}

FlowNetwork TenantSession::network_copy() const {
  const ReadSection section(*this);
  return session_.network();
}

FlowDemand TenantSession::default_demand() const {
  const ReadSection section(*this);
  return default_demand_;
}

void TenantSession::publish_budget(std::size_t max_mask_tables) noexcept {
  budget_target_.store(max_mask_tables);
  budget_pending_.store(true);
}

void TenantSession::settle_budget() {
  // A failed try_lock means a holder exists; it re-runs this check after
  // its unlock, so the target is never left pending once the session's
  // running ops have finished.
  while (budget_pending_.load()) {
    const std::unique_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) return;
    apply_budget_locked();
    publish_stats_locked();
  }
}

void TenantSession::apply_budget_locked() {
  if (budget_pending_.exchange(false)) {
    session_.set_cache_budget(budget_target_.load());
  }
}

void TenantSession::publish_stats_locked() {
  Stats s;
  s.queries = session_.telemetry().counter_or(telemetry_keys::kQueries);
  s.cache_hits = session_.cache_hits();
  s.cache_misses = session_.cache_misses();
  s.cache_evictions = session_.cache_evictions();
  s.invalidations_full = session_.cache_invalidations_full();
  s.invalidations_partial = session_.cache_invalidations_partial();
  s.invalidations_survived = session_.cache_survived();
  s.mask_tables = session_.cached_mask_tables();
  s.mask_bytes = session_.cached_mask_bytes();
  s.durable = store_ != nullptr;
  s.restored = restored_;
  if (store_) {
    const StoreStats& st = store_->stats();
    s.wal_records = st.wal_records;
    s.checkpoints = st.checkpoints;
    s.wal_appends = st.appends;
    s.state_bytes_written = st.bytes_written;
  }
  s.journal_errors = journal_errors_;
  s.replayed_deltas = replayed_deltas_;
  const std::lock_guard<std::mutex> lock(stats_mu_);
  published_ = s;
}

TenantSession::Stats TenantSession::stats() const {
  Stats s;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    s = published_;
  }
  s.budget = budget_target_.load();
  return s;
}

SessionRegistry::SessionRegistry(QueryCacheOptions default_cache,
                                 std::size_t global_mask_tables,
                                 RegistryPersistOptions persist)
    : default_cache_(default_cache),
      global_mask_tables_(std::max<std::size_t>(global_mask_tables, 1)),
      persist_(std::move(persist)) {}

StoreOptions SessionRegistry::store_options() const {
  StoreOptions options;
  options.compact_threshold = persist_.wal_compact_threshold;
  options.fsync = persist_.fsync;
  options.repair = true;
  return options;
}

std::unique_ptr<SessionStore> SessionRegistry::make_store(
    const std::string& tenant, const std::string& network_id) const {
  const StateDir state_dir(persist_.state_dir);
  return std::make_unique<SessionStore>(
      state_dir.store_path(tenant, network_id), store_options());
}

bool SessionRegistry::adopt_session(const std::string& tenant,
                                    const std::string& network_id,
                                    std::shared_ptr<TenantSession> session,
                                    bool explicit_budget) {
  std::vector<std::shared_ptr<TenantSession>> resized;
  bool replaced = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_pair(tenant, network_id);
    const auto it = sessions_.find(key);
    if (it != sessions_.end() && !it->second->explicit_budget()) {
      implicit_count_ -= 1;
    }
    if (!explicit_budget) implicit_count_ += 1;
    if (implicit_count_ > 0) {
      // Implicit sessions split the global cap evenly; explicit budgets
      // were clamped at registration and are left alone.
      const std::size_t share =
          std::max<std::size_t>(global_mask_tables_ / implicit_count_, 1);
      if (!explicit_budget) {
        session->publish_budget(share);
        resized.push_back(session);
      }
      if (share != implicit_share_) {
        for (auto& [other_key, other] : sessions_) {
          if (other_key == key || other->explicit_budget()) continue;
          other->publish_budget(share);
          resized.push_back(other);
        }
        implicit_share_ = share;
      }
    }
    if (it != sessions_.end()) {
      replaced = true;
      it->second = std::move(session);
    } else {
      sessions_.emplace(key, std::move(session));
    }
  }
  // Targets were published in registry order under mu_; applying them
  // needs no ordering, and a busy session applies its own.
  for (const std::shared_ptr<TenantSession>& target : resized) {
    target->settle_budget();
  }
  return replaced;
}

RegisterOutcome SessionRegistry::register_network(
    const std::string& tenant, const std::string& network_id, FlowNetwork net,
    FlowDemand default_demand, std::optional<std::size_t> max_mask_tables) {
  RegisterOutcome outcome;
  outcome.nodes = net.num_nodes();
  outcome.edges = net.num_edges();

  QueryCacheOptions cache = default_cache_;
  const bool explicit_budget = max_mask_tables.has_value();
  if (explicit_budget) {
    cache.max_mask_tables = std::min(*max_mask_tables, global_mask_tables_);
  }
  auto session = std::make_shared<TenantSession>(
      std::move(net), default_demand, cache, explicit_budget);
  if (persistent()) session->attach_store(make_store(tenant, network_id));

  outcome.replaced = adopt_session(tenant, network_id, session,
                                   explicit_budget);
  if (persistent()) {
    std::string err;
    outcome.persisted =
        session->checkpoint_now(&err) == StoreStatus::kOk;
    if (!outcome.persisted) outcome.persist_error = err;
  }
  outcome.cache_budget = session->stats().budget;
  return outcome;
}

BootRestoreReport SessionRegistry::restore_all() {
  BootRestoreReport report;
  if (!persistent()) return report;
  const StateDir state_dir(persist_.state_dir);
  for (const StateDir::Entry& entry : state_dir.enumerate()) {
    auto store = std::make_unique<SessionStore>(entry.path, store_options());
    RestoredSession restored;
    std::string err;
    const StoreStatus status = store->load(restored, &err);
    if (status == StoreStatus::kNotFound) continue;
    if (status != StoreStatus::kOk) {
      report.warnings.push_back(entry.tenant + "/" + entry.network_id + ": " +
                                std::string(to_string(status)) +
                                (err.empty() ? "" : " (" + err + ")"));
      ++report.corrupt;
      const std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_;
      continue;
    }
    QueryCacheOptions cache = default_cache_;
    const bool explicit_budget = restored.max_mask_tables.has_value();
    if (explicit_budget) {
      cache.max_mask_tables =
          std::min(*restored.max_mask_tables, global_mask_tables_);
    }
    report.replayed_deltas += restored.replayed_deltas;
    auto session = std::make_shared<TenantSession>(std::move(restored), cache,
                                                   explicit_budget);
    session->attach_store(std::move(store));
    adopt_session(entry.tenant, entry.network_id, std::move(session),
                  explicit_budget);
    ++report.restored;
    const std::lock_guard<std::mutex> lock(mu_);
    ++restores_;
  }
  return report;
}

RestoreOutcome SessionRegistry::restore_session(const std::string& tenant,
                                                const std::string& network_id) {
  RestoreOutcome outcome;
  if (!persistent()) {
    outcome.status = StoreStatus::kNotFound;
    outcome.error = "persistence disabled (no --state-dir)";
    return outcome;
  }
  auto store = make_store(tenant, network_id);
  RestoredSession restored;
  outcome.status = store->load(restored, &outcome.error);
  if (outcome.status != StoreStatus::kOk) {
    if (outcome.status == StoreStatus::kCorrupt ||
        outcome.status == StoreStatus::kIoError) {
      const std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_;
    }
    return outcome;
  }
  QueryCacheOptions cache = default_cache_;
  const bool explicit_budget = restored.max_mask_tables.has_value();
  if (explicit_budget) {
    cache.max_mask_tables =
        std::min(*restored.max_mask_tables, global_mask_tables_);
  }
  outcome.replayed_deltas = restored.replayed_deltas;
  outcome.nodes = restored.net.num_nodes();
  outcome.edges = restored.net.num_edges();
  auto session = std::make_shared<TenantSession>(std::move(restored), cache,
                                                 explicit_budget);
  session->attach_store(std::move(store));
  adopt_session(tenant, network_id, session, explicit_budget);
  outcome.cache_budget = session->stats().budget;
  const std::lock_guard<std::mutex> lock(mu_);
  ++restores_;
  return outcome;
}

StoreStatus SessionRegistry::persist_session(const std::string& tenant,
                                             const std::string& network_id,
                                             std::string* error) {
  if (!persistent()) {
    if (error) *error = "persistence disabled (no --state-dir)";
    return StoreStatus::kNotFound;
  }
  const std::shared_ptr<TenantSession> session = find(tenant, network_id);
  if (!session) {
    if (error) *error = "no session registered under this key";
    return StoreStatus::kNotFound;
  }
  return session->checkpoint_now(error);
}

std::size_t SessionRegistry::checkpoint_all() {
  std::size_t failures = 0;
  for (const auto& [key, session] : snapshot()) {
    if (!session->durable()) continue;
    if (session->checkpoint_now() != StoreStatus::kOk) ++failures;
  }
  return failures;
}

RegistryStats SessionRegistry::stats() const {
  RegistryStats out;
  out.persist.enabled = persistent();
  for (auto& [name, session] : snapshot()) {
    const TenantSession::Stats s = session->stats();
    out.persist.checkpoints += s.checkpoints;
    out.persist.wal_appends += s.wal_appends;
    out.persist.wal_records += s.wal_records;
    out.persist.bytes_written += s.state_bytes_written;
    out.persist.journal_errors += s.journal_errors;
    out.persist.replayed_deltas += s.replayed_deltas;
    out.sessions.emplace_back(std::move(name), s);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  out.persist.restores = restores_;
  out.persist.corrupt = corrupt_;
  return out;
}

std::shared_ptr<TenantSession> SessionRegistry::find(
    const std::string& tenant, const std::string& network_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(std::make_pair(tenant, network_id));
  return it != sessions_.end() ? it->second : nullptr;
}

std::size_t SessionRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::pair<std::string, std::shared_ptr<TenantSession>>>
SessionRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<TenantSession>>> out;
  out.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) {
    out.emplace_back(key.first + "/" + key.second, session);
  }
  return out;
}

}  // namespace streamrel
