#pragma once
// TenantSession + SessionRegistry — the daemon's tenancy layer: one
// QuerySession per registered (tenant, network_id) pair, hardened for
// concurrent use, with per-session mask-table budgets shared under one
// global memory cap.
//
// QuerySession itself is single-threaded by design (the caches are
// mutable on the read path). TenantSession wraps one behind a
// shared_mutex and re-implements the solve() orchestration with split
// locking (it is a friend of QuerySession): cache preparation, fallback
// solves and delta application — everything that can mutate the network
// or the caches — run under the writer lock, while the expensive warm
// path (finish_prepared: gather probabilities + accumulate, which only
// READS the cached artifacts) runs under the reader lock, so a tenant's
// warm what-ifs proceed in parallel. Answers stay bitwise-identical to
// a plain QuerySession: the orchestration is the same code path in the
// same order, only the locking is new.
//
// Bookkeeping never takes another session's lock. The registry keeps
// the current implicit share and, only when a registration or restore
// changes it, publishes the new share to every implicit session as an
// atomic budget target. Each session enforces its target (oldest-first
// LRU eviction, QuerySession::set_cache_budget) at its own writer-section
// boundaries; an idle session is shrunk at once through try_lock, and a
// holder that made that try_lock fail settles the target when it lets
// go. So once the ops already running on a session finish, its cached
// tables are within its published budget. Likewise stats() reads a
// snapshot the session publishes at the end of every writer section, so
// the stats verb, metrics scrapes and the registration reply never
// queue behind a running solve or batch.
//
// Durability (optional, RegistryPersistOptions::state_dir): each session
// owns a persist::SessionStore. The store is only ever touched under the
// session's WRITER lock, which pins the critical ordering property for
// free: apply_delta journals the delta in the same critical section that
// applied it, so the WAL replays deltas in exactly the order the live
// session saw them — restored state is bitwise-identical to pre-crash
// state. Registration, the persist verb, WAL compaction and shutdown all
// checkpoint through the same path (atomic snapshot + journal reset).
// Journal failures degrade durability, never availability: the in-memory
// apply already succeeded, so the request is answered and the failure is
// counted (journal_errors).

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "streamrel/core/batch_evaluator.hpp"
#include "streamrel/core/query_session.hpp"
#include "streamrel/persist/store.hpp"

namespace streamrel {

class TenantSession {
 public:
  TenantSession(FlowNetwork net, FlowDemand default_demand,
                const QueryCacheOptions& cache_options, bool explicit_budget);

  /// Warm restore: adopts the persist layer's replay product — builder
  /// network AND compiled snapshot, already consistent — so the first
  /// query after a restart runs against the exact restored arrays
  /// without recompiling.
  TenantSession(RestoredSession restored,
                const QueryCacheOptions& cache_options, bool explicit_budget);

  /// Hands this session its durable store (nullptr detaches). The store
  /// is used only under the session's writer lock from here on.
  void attach_store(std::unique_ptr<SessionStore> store);
  bool durable() const;

  /// Checkpoint: atomic snapshot write + journal reset (see
  /// persist/store.hpp for the durability protocol).
  StoreStatus checkpoint_now(std::string* error = nullptr);

  /// Same contract and bitwise-same answer as QuerySession::solve.
  /// `options.context` must be set (the service owns the per-request
  /// ExecContext); the delta hint handling matches QuerySession.
  SolveReport solve(const FlowDemand& demand, const SolveOptions& options,
                    std::span<const ProbOverride> overrides);

  /// Whole-batch evaluation under the writer lock (BatchEvaluator may
  /// touch every cache layer and run its own parallel accumulate).
  BatchReport batch(std::span<const WhatIfQuery> queries,
                    const BatchOptions& options);

  /// Applies the delta and, when durable, journals it to the WAL in the
  /// SAME writer critical section (write-ahead of the acknowledgement,
  /// ordered exactly as applied). A full journal triggers compaction —
  /// an inline checkpoint — right there.
  DeltaOutcome apply_delta(const NetworkDelta& delta);

  /// Copy of the current network, for read-only replay pipelines.
  FlowNetwork network_copy() const;
  FlowDemand default_demand() const;

  /// Publishes a new mask-table budget target without taking the
  /// session lock: one atomic store. The session applies it at its next
  /// writer-section boundary, or settle_budget() applies it now if the
  /// session is idle.
  void publish_budget(std::size_t max_mask_tables) noexcept;
  /// Applies a published budget target if the session lock is free;
  /// otherwise leaves it to the current holder, which settles it on
  /// release. Never blocks.
  void settle_budget();
  /// True when registration named an explicit max_mask_tables (the
  /// registry only rebalances implicit budgets).
  bool explicit_budget() const noexcept { return explicit_budget_; }

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    /// Per-entry invalidation outcomes (cut-scoped delta application).
    std::uint64_t invalidations_full = 0;
    std::uint64_t invalidations_partial = 0;
    std::uint64_t invalidations_survived = 0;
    std::size_t mask_tables = 0;
    std::size_t mask_bytes = 0;  ///< resident slab bytes of cached tables
    std::size_t budget = 0;
    // --- durability ---------------------------------------------------
    bool durable = false;     ///< a store is attached
    bool restored = false;    ///< this session was warm-restored from disk
    std::uint64_t wal_records = 0;     ///< current journal depth
    std::uint64_t checkpoints = 0;
    std::uint64_t wal_appends = 0;
    std::uint64_t state_bytes_written = 0;
    std::uint64_t journal_errors = 0;
    std::uint64_t replayed_deltas = 0;  ///< WAL records replayed at restore
  };
  /// The snapshot published at the end of the latest writer section,
  /// with `budget` the current published target. Never takes the
  /// session lock, so it does not wait for a running solve or batch.
  Stats stats() const;

 private:
  class WriteSection;
  class ReadSection;

  /// Checkpoint body; caller holds the writer lock.
  StoreStatus checkpoint_locked(std::string* error);
  /// Applies a pending budget target; caller holds the writer lock.
  void apply_budget_locked();
  /// Recomputes the published stats snapshot; caller holds the writer
  /// lock.
  void publish_stats_locked();

  mutable std::shared_mutex mu_;
  QuerySession session_;
  FlowDemand default_demand_;
  const bool explicit_budget_;
  std::unique_ptr<SessionStore> store_;
  std::uint64_t journal_errors_ = 0;
  std::uint64_t replayed_deltas_ = 0;
  bool restored_ = false;
  std::atomic<std::size_t> budget_target_;
  std::atomic<bool> budget_pending_{false};
  mutable std::mutex stats_mu_;  ///< guards published_ only
  Stats published_;
};

/// Registration outcome, echoed on the wire.
struct RegisterOutcome {
  bool replaced = false;        ///< an existing session was dropped
  std::size_t cache_budget = 0; ///< mask-table budget actually granted
  int nodes = 0;
  int edges = 0;
  bool persisted = false;       ///< a durable checkpoint was written
  std::string persist_error;    ///< non-empty: checkpoint failed (degraded)
};

/// Durability configuration for the registry. An empty state_dir turns
/// persistence off entirely (the PR-8 in-memory behavior).
struct RegistryPersistOptions {
  std::string state_dir;
  std::size_t wal_compact_threshold = 64;
  bool fsync = true;
};

/// restore_all() outcome: what came back, what was refused as corrupt.
struct BootRestoreReport {
  std::size_t restored = 0;
  std::size_t corrupt = 0;
  std::uint64_t replayed_deltas = 0;
  std::vector<std::string> warnings;  ///< one line per refused store
};

/// Single-session restore outcome (the `restore` verb).
struct RestoreOutcome {
  StoreStatus status = StoreStatus::kNotFound;
  std::string error;
  int nodes = 0;
  int edges = 0;
  std::uint64_t replayed_deltas = 0;
  std::size_t cache_budget = 0;
};

/// Aggregated durability counters for stats/metrics.
struct PersistTotals {
  bool enabled = false;
  std::uint64_t checkpoints = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_records = 0;  ///< current depth summed over sessions
  std::uint64_t bytes_written = 0;
  std::uint64_t journal_errors = 0;
  std::uint64_t restores = 0;         ///< sessions restored (boot + verb)
  std::uint64_t corrupt = 0;          ///< stores refused as corrupt
  std::uint64_t replayed_deltas = 0;  ///< WAL records replayed on restores
};

/// One pass over the live sessions for the stats verb and the metrics
/// scrape: each session's published stats, keyed "tenant/network_id",
/// and the durability totals folded from those same stats.
struct RegistryStats {
  std::vector<std::pair<std::string, TenantSession::Stats>> sessions;
  PersistTotals persist;
};

class SessionRegistry {
 public:
  /// `global_mask_tables` caps the SUM of all sessions' mask-table
  /// budgets: explicit per-session requests are clamped to it, implicit
  /// sessions split it evenly (>= 1 each). A new share is published to
  /// the implicit sessions only when it changes.
  explicit SessionRegistry(QueryCacheOptions default_cache,
                           std::size_t global_mask_tables,
                           RegistryPersistOptions persist = {});

  bool persistent() const noexcept { return !persist_.state_dir.empty(); }

  /// Binds a network (replacing any session under the same key) and
  /// publishes the implicit share if it changed; never waits on another
  /// session's lock. Under persistence the new session is checkpointed
  /// before this returns (RegisterOutcome::persisted).
  RegisterOutcome register_network(const std::string& tenant,
                                   const std::string& network_id,
                                   FlowNetwork net, FlowDemand default_demand,
                                   std::optional<std::size_t> max_mask_tables);

  /// Restores every loadable store under state_dir (boot path). Corrupt
  /// stores are skipped with a warning — a cold start, never a crash.
  BootRestoreReport restore_all();

  /// Reloads one session from its store, replacing any live session
  /// under the key (the `restore` verb). kNotFound when nothing durable
  /// exists for the key; kCorrupt details in RestoreOutcome::error.
  RestoreOutcome restore_session(const std::string& tenant,
                                 const std::string& network_id);

  /// Checkpoints one live session (the `persist` verb). kNotFound when
  /// the key has no live session or persistence is off.
  StoreStatus persist_session(const std::string& tenant,
                              const std::string& network_id,
                              std::string* error = nullptr);

  /// Checkpoints every live session (shutdown path); returns how many
  /// checkpoints failed.
  std::size_t checkpoint_all();

  /// Published stats of every live session plus the durability totals,
  /// from one snapshot of the session map.
  RegistryStats stats() const;

  /// nullptr when the key was never registered.
  std::shared_ptr<TenantSession> find(const std::string& tenant,
                                      const std::string& network_id) const;

  std::size_t size() const;

  /// (tenant "/" network_id, session) pairs, in key order.
  std::vector<std::pair<std::string, std::shared_ptr<TenantSession>>>
  snapshot() const;

 private:
  StoreOptions store_options() const;
  std::unique_ptr<SessionStore> make_store(const std::string& tenant,
                                           const std::string& network_id) const;
  /// Inserts (or replaces) under the registry lock, maintaining the
  /// implicit-budget bookkeeping: the newcomer gets the current share,
  /// the other implicit sessions get it only when it changed. Returns
  /// whether a session was replaced.
  bool adopt_session(const std::string& tenant, const std::string& network_id,
                     std::shared_ptr<TenantSession> session,
                     bool explicit_budget);

  const QueryCacheOptions default_cache_;
  const std::size_t global_mask_tables_;
  const RegistryPersistOptions persist_;
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<TenantSession>>
      sessions_;
  std::size_t implicit_count_ = 0;
  /// Budget target every live implicit session holds; 0 before the
  /// first implicit session. Guarded by mu_.
  std::size_t implicit_share_ = 0;
  std::uint64_t restores_ = 0;  ///< guarded by mu_
  std::uint64_t corrupt_ = 0;   ///< guarded by mu_
};

}  // namespace streamrel
