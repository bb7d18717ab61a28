// SessionRegistry budget bookkeeping: the registry publishes the implicit
// share only when it changes and sessions enforce it at their own lock
// boundaries. Driven through new, replacing, explicit-budget,
// restore_session and restore_all adoptions, every session must report
// exactly the budget the eager rule gives — max(global / implicit, 1)
// for implicit sessions, the request clamped to the global cap for
// explicit ones — and a fixed query sequence must evict exactly what a
// plain QuerySession rebalanced eagerly at the same points evicts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "streamrel/core/query_session.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/server/session_registry.hpp"
#include "streamrel/util/prng.hpp"

namespace streamrel {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kGlobal = 6;
constexpr std::size_t kDefaultBudget = 64;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("streamrel_registry_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

GeneratedNetwork instance(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {2, 3};
  return clustered_bottleneck(rng, params);
}

/// Six distinct mask-table keys per session: two sources times three
/// rates, all on the cached bottleneck path.
std::vector<FlowDemand> query_demands(const GeneratedNetwork& g) {
  NodeId other_source = g.source;
  for (NodeId v = 0; v < g.net.num_nodes(); ++v) {
    if (g.side_s[static_cast<std::size_t>(v)] && v != g.source) {
      other_source = v;
      break;
    }
  }
  std::vector<FlowDemand> demands;
  for (const NodeId source : {g.source, other_source}) {
    for (const Capacity rate : {1, 2, 3}) {
      demands.push_back(FlowDemand{source, g.sink, rate});
    }
  }
  return demands;
}

/// The registry under test beside an eager model of it: one plain
/// QuerySession per key whose budget is reset by the old rule after
/// every adoption.
class BudgetHarness {
 public:
  explicit BudgetHarness(const fs::path& state_dir)
      : state_dir_(state_dir), registry_(make_registry()) {}

  void register_network(const std::string& tenant, std::uint64_t seed,
                        std::optional<std::size_t> requested) {
    const GeneratedNetwork g = instance(seed);
    const RegisterOutcome outcome = registry_->register_network(
        tenant, "n", g.net, FlowDemand{g.source, g.sink, 2}, requested);
    model_[tenant] = Slot{seed, requested};
    reset_reference(tenant);
    EXPECT_EQ(outcome.cache_budget, eager_budget(tenant)) << tenant;
    after_adoption();
  }

  void restore_session(const std::string& tenant) {
    const RestoreOutcome outcome = registry_->restore_session(tenant, "n");
    ASSERT_EQ(outcome.status, StoreStatus::kOk) << outcome.error;
    const GeneratedNetwork g = instance(model_.at(tenant).seed);
    EXPECT_EQ(outcome.nodes, g.net.num_nodes());
    EXPECT_EQ(outcome.edges, g.net.num_edges());
    reset_reference(tenant);
    EXPECT_EQ(outcome.cache_budget, eager_budget(tenant)) << tenant;
    after_adoption();
  }

  /// Drops the live registry and boots a new one from the state dir.
  void restart() {
    registry_ = make_registry();
    const BootRestoreReport report = registry_->restore_all();
    EXPECT_EQ(report.restored, model_.size());
    EXPECT_EQ(report.corrupt, 0u);
    for (const auto& [tenant, slot] : model_) reset_reference(tenant);
    after_adoption();
  }

  std::uint64_t total_evictions() const { return total_evictions_; }

 private:
  struct Slot {
    std::uint64_t seed = 0;
    std::optional<std::size_t> requested;
  };

  std::unique_ptr<SessionRegistry> make_registry() const {
    QueryCacheOptions cache;
    cache.max_mask_tables = kDefaultBudget;
    RegistryPersistOptions persist;
    persist.state_dir = state_dir_.string();
    persist.fsync = false;
    return std::make_unique<SessionRegistry>(cache, kGlobal, persist);
  }

  std::size_t eager_budget(const std::string& tenant) const {
    const Slot& slot = model_.at(tenant);
    if (slot.requested) return std::min(*slot.requested, kGlobal);
    const auto implicit = static_cast<std::size_t>(
        std::count_if(model_.begin(), model_.end(),
                      [](const auto& kv) { return !kv.second.requested; }));
    return std::max<std::size_t>(kGlobal / implicit, 1);
  }

  void reset_reference(const std::string& tenant) {
    const Slot& slot = model_.at(tenant);
    QueryCacheOptions cache;
    cache.max_mask_tables =
        slot.requested ? std::min(*slot.requested, kGlobal) : kDefaultBudget;
    references_[tenant] =
        std::make_unique<QuerySession>(instance(slot.seed).net, cache);
  }

  /// Checks budgets right after the adoption, then runs the fixed query
  /// sequence on every session and its reference.
  void after_adoption() {
    for (const auto& [tenant, slot] : model_) {
      const std::shared_ptr<TenantSession> session =
          registry_->find(tenant, "n");
      ASSERT_NE(session, nullptr) << tenant;
      QuerySession& reference = *references_.at(tenant);
      const std::size_t budget = eager_budget(tenant);
      reference.set_cache_budget(budget);  // the old eager rebalance

      TenantSession::Stats stats = session->stats();
      EXPECT_EQ(stats.budget, budget) << tenant;
      // Idle sessions are shrunk by the adoption itself.
      EXPECT_LE(stats.mask_tables, budget) << tenant;
      EXPECT_EQ(stats.cache_evictions, reference.cache_evictions()) << tenant;

      const GeneratedNetwork g = instance(slot.seed);
      SolveOptions options;
      options.method = Method::kBottleneck;
      for (const FlowDemand& demand : query_demands(g)) {
        const SolveReport got = session->solve(demand, options, {});
        const SolveReport want = reference.solve(demand, options);
        EXPECT_EQ(std::memcmp(&got.result.reliability,
                              &want.result.reliability, sizeof(double)),
                  0)
            << tenant;
      }
      stats = session->stats();
      EXPECT_LE(stats.mask_tables, stats.budget) << tenant;
      EXPECT_EQ(stats.mask_tables, reference.cached_mask_tables()) << tenant;
      EXPECT_EQ(stats.cache_evictions, reference.cache_evictions()) << tenant;
      total_evictions_ += stats.cache_evictions;
    }
  }

  fs::path state_dir_;
  std::unique_ptr<SessionRegistry> registry_;
  std::map<std::string, Slot> model_;
  std::map<std::string, std::unique_ptr<QuerySession>> references_;
  std::uint64_t total_evictions_ = 0;
};

TEST(SessionRegistry, BudgetsMatchTheEagerRuleThroughEveryAdoption) {
  const ScratchDir dir("budgets");
  BudgetHarness h(dir.path);
  h.register_network("a", 1, std::nullopt);  // a = 6
  h.register_network("b", 2, std::nullopt);  // a, b = 3
  h.register_network("c", 3, 100);           // explicit, clamped to 6
  h.register_network("b", 4, std::nullopt);  // replaced, share unchanged
  h.register_network("d", 5, 2);             // explicit, share unchanged
  h.register_network("a", 6, 1);             // implicit -> explicit: b = 6
  h.register_network("e", 7, std::nullopt);  // b, e = 3
  h.restore_session("b");                    // implicit restore
  h.restore_session("c");                    // explicit restore (6)
  h.register_network("c", 8, std::nullopt);  // explicit -> implicit: 2 each
  h.register_network("f", 9, std::nullopt);  // 4 implicit: 6 / 4 = 1
  h.restart();                               // restore_all, same budgets
  // The sequence must actually exercise eviction for the comparison to
  // mean anything.
  EXPECT_GT(h.total_evictions(), 0u);
}

TEST(SessionRegistry, StatsFoldsPersistTotalsFromTheSameSnapshot) {
  const ScratchDir dir("stats");
  QueryCacheOptions cache;
  RegistryPersistOptions persist;
  persist.state_dir = dir.path.string();
  persist.fsync = false;
  SessionRegistry registry(cache, kGlobal, persist);
  for (const char* tenant : {"x", "y"}) {
    const GeneratedNetwork g = instance(11);
    ASSERT_TRUE(registry
                    .register_network(tenant, "n", g.net,
                                      FlowDemand{g.source, g.sink, 2},
                                      std::nullopt)
                    .persisted);
  }
  const RegistryStats stats = registry.stats();
  ASSERT_EQ(stats.sessions.size(), 2u);
  EXPECT_EQ(stats.sessions[0].first, "x/n");
  EXPECT_EQ(stats.sessions[1].first, "y/n");
  EXPECT_TRUE(stats.persist.enabled);
  std::uint64_t checkpoints = 0;
  for (const auto& [name, s] : stats.sessions) {
    EXPECT_TRUE(s.durable) << name;
    EXPECT_EQ(s.budget, kGlobal / 2) << name;
    checkpoints += s.checkpoints;
  }
  EXPECT_EQ(checkpoints, 2u);
  EXPECT_EQ(stats.persist.checkpoints, checkpoints);
}

}  // namespace
}  // namespace streamrel
