#pragma once
// The Engine interface + registry the facade dispatches through.
//
// Each reliability algorithm is wrapped as an Engine: a named, uniformly
// shaped solver that takes (network, demand, SolveOptions, ExecContext)
// and returns a SolveReport. The registry holds one engine per Method;
// compute_reliability resolves the requested method (or walks the kAuto
// fallback chain) against it instead of hard-coding a switch, so new
// algorithms plug in without touching the facade.
//
// Error taxonomy, uniform across engines:
//  * usage errors (bad demand, unmet structural preconditions, no usable
//    partition for an explicit kBottleneck) throw std::invalid_argument;
//  * deadline / cancellation / work-budget stops NEVER throw out of an
//    engine — they come back as SolveReport.result.status != kExact.

#include <memory>
#include <string_view>
#include <vector>

#include "streamrel/core/reliability_facade.hpp"

namespace streamrel {

class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string_view name() const noexcept = 0;
  virtual Method method() const noexcept = 0;

  /// Cheap structural precondition used by the kAuto chain (a true here
  /// does not guarantee solve() succeeds — e.g. the bottleneck engine
  /// may still find no worthwhile partition).
  virtual bool applicable(const FlowNetwork& net,
                          const FlowDemand& demand) const = 0;

  /// `ctx` may be null (no deadline, no cancellation, default threads).
  virtual SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                            const SolveOptions& options,
                            const ExecContext* ctx) const = 0;
};

/// One engine per Method, seeded with the five built-ins (bottleneck,
/// naive, factoring, frontier, hybrid MC). Registering an engine for an
/// already-covered Method replaces the previous one.
class EngineRegistry {
 public:
  /// The process-wide registry the facade dispatches through.
  static EngineRegistry& instance();

  void register_engine(std::unique_ptr<Engine> engine);

  /// nullptr when no engine covers `method` (kAuto has no engine of its
  /// own — it is a policy over the others).
  const Engine* find(Method method) const noexcept;

  /// Throws std::invalid_argument when no engine covers `method`.
  const Engine& require(Method method) const;

  /// All registered engines, in registration order.
  std::vector<const Engine*> engines() const;

 private:
  EngineRegistry();
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace streamrel
