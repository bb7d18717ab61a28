#include "streamrel/core/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "streamrel/util/trace.hpp"

namespace streamrel {

namespace {

bool all_undirected(const FlowNetwork& net) {
  for (const Edge& e : net.edges()) {
    if (e.directed()) return false;
  }
  return true;
}

// Every engine opens one top-level span tagged with the instance shape,
// so a trace always shows which engine ran and for how long.
TraceSpan engine_span(std::string_view engine, const FlowNetwork& net) {
  TraceSpan span(engine, "engine");
  span.arg("nodes", static_cast<std::int64_t>(net.num_nodes()))
      .arg("links", static_cast<std::int64_t>(net.num_edges()));
  return span;
}

class NaiveEngine final : public Engine {
 public:
  std::string_view name() const noexcept override { return "naive"; }
  Method method() const noexcept override { return Method::kNaive; }
  bool applicable(const FlowNetwork& net,
                  const FlowDemand& demand) const override {
    (void)demand;
    return net.fits_mask();
  }
  SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                    const SolveOptions& options,
                    const ExecContext* ctx) const override {
    const TraceSpan span = engine_span(name(), net);
    SolveReport report;
    report.method_used = Method::kNaive;
    report.engine = name();
    report.result = reliability_naive(net, demand, options.naive, ctx);
    return report;
  }
};

class FactoringEngine final : public Engine {
 public:
  std::string_view name() const noexcept override { return "factoring"; }
  Method method() const noexcept override { return Method::kFactoring; }
  bool applicable(const FlowNetwork& net,
                  const FlowDemand& demand) const override {
    (void)net;
    (void)demand;
    return true;
  }
  SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                    const SolveOptions& options,
                    const ExecContext* ctx) const override {
    const TraceSpan span = engine_span(name(), net);
    SolveReport report;
    report.method_used = Method::kFactoring;
    report.engine = name();
    report.result = reliability_factoring(net, demand, options.factoring, ctx);
    return report;
  }
};

class FrontierEngine final : public Engine {
 public:
  std::string_view name() const noexcept override { return "frontier"; }
  Method method() const noexcept override { return Method::kFrontier; }
  bool applicable(const FlowNetwork& net,
                  const FlowDemand& demand) const override {
    return demand.rate == 1 && all_undirected(net);
  }
  SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                    const SolveOptions& options,
                    const ExecContext* ctx) const override {
    const TraceSpan span = engine_span(name(), net);
    SolveReport report;
    report.method_used = Method::kFrontier;
    report.engine = name();
    report.result =
        reliability_connectivity(net, demand, options.frontier, ctx);
    return report;
  }
};

class BottleneckEngine final : public Engine {
 public:
  std::string_view name() const noexcept override { return "bottleneck"; }
  Method method() const noexcept override { return Method::kBottleneck; }
  bool applicable(const FlowNetwork& net,
                  const FlowDemand& demand) const override {
    (void)net;
    (void)demand;
    return true;  // decided by the candidate walk in solve()
  }
  SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                    const SolveOptions& options,
                    const ExecContext* ctx) const override {
    const TraceSpan span = engine_span(name(), net);
    SolveReport report;
    report.method_used = Method::kBottleneck;
    report.engine = name();

    std::vector<PartitionChoice> candidates;
    try {
      candidates = find_candidate_partitions(
          net, demand.source, demand.sink, options.partition_search, ctx);
    } catch (const ExecInterrupted& stop) {
      report.result.status = stop.status;
      return report;
    }

    // One frozen snapshot shared by every candidate's side views.
    const std::shared_ptr<const CompiledNetwork> snapshot = net.compile();

    // Try candidates best first; one can still fail for demand-specific
    // reasons (assignment-set blow-up), in which case the next one gets
    // its chance.
    bool overflowed = false;
    for (PartitionChoice& choice : candidates) {
      // Worthwhile when the decomposition shrinks the enumeration
      // exponent: max side strictly below |E| - k means
      // 2^max_side * 2 < 2^|E|. An EXPLICIT kBottleneck request runs
      // regardless; the kAuto chain moves on.
      const int max_side =
          std::max(choice.stats.edges_s, choice.stats.edges_t);
      const bool worthwhile =
          max_side + choice.stats.k < net.num_edges() || !net.fits_mask();
      if (options.method != Method::kBottleneck && !worthwhile) break;
      try {
        BottleneckResult result = reliability_bottleneck(
            net, demand, choice.partition, options.bottleneck, ctx, snapshot);
        if (result.status == SolveStatus::kMaskOverflow) {
          // This candidate needs more than kMaxMaskBits links in one
          // failure mask; a more balanced candidate may still fit.
          overflowed = true;
          continue;
        }
        report.result = result;
        report.partition = std::move(choice);
        return report;
      } catch (const std::invalid_argument&) {
        continue;
      }
    }
    if (overflowed) {
      // Every usable candidate overflowed the mask: not a usage error but
      // a capability limit — report the status so kAuto can fall through
      // to a non-enumerating engine.
      report.result.status = SolveStatus::kMaskOverflow;
      return report;
    }
    throw std::invalid_argument(
        "no usable bottleneck partition found for this network");
  }
};

class HybridMcEngine final : public Engine {
 public:
  std::string_view name() const noexcept override { return "hybrid-mc"; }
  Method method() const noexcept override { return Method::kHybridMc; }
  bool applicable(const FlowNetwork& net,
                  const FlowDemand& demand) const override {
    (void)net;
    (void)demand;
    // Estimates are never substituted for an exact answer: the kAuto
    // chain must skip this engine, so it only runs on explicit request.
    return false;
  }
  SolveReport solve(const FlowNetwork& net, const FlowDemand& demand,
                    const SolveOptions& options,
                    const ExecContext* ctx) const override {
    const TraceSpan span = engine_span(name(), net);
    SolveReport report;
    report.method_used = Method::kHybridMc;
    report.engine = name();

    std::optional<PartitionChoice> choice;
    try {
      choice = find_best_partition(net, demand.source, demand.sink,
                                   options.partition_search, ctx);
    } catch (const ExecInterrupted& stop) {
      report.result.status = stop.status;
      return report;
    }
    if (!choice) {
      throw std::invalid_argument(
          "no usable bottleneck partition found for this network");
    }
    const HybridMonteCarloResult hybrid = reliability_bottleneck_hybrid(
        net, demand, choice->partition, options.hybrid, ctx);
    report.result.reliability = hybrid.estimate;
    report.result.status = hybrid.status;
    report.result.telemetry = hybrid.telemetry;
    report.partition = std::move(*choice);
    return report;
  }
};

}  // namespace

EngineRegistry::EngineRegistry() {
  register_engine(std::make_unique<BottleneckEngine>());
  register_engine(std::make_unique<NaiveEngine>());
  register_engine(std::make_unique<FactoringEngine>());
  register_engine(std::make_unique<FrontierEngine>());
  register_engine(std::make_unique<HybridMcEngine>());
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

void EngineRegistry::register_engine(std::unique_ptr<Engine> engine) {
  if (!engine) throw std::invalid_argument("null engine");
  for (auto& existing : engines_) {
    if (existing->method() == engine->method()) {
      existing = std::move(engine);
      return;
    }
  }
  engines_.push_back(std::move(engine));
}

const Engine* EngineRegistry::find(Method method) const noexcept {
  for (const auto& engine : engines_) {
    if (engine->method() == method) return engine.get();
  }
  return nullptr;
}

const Engine& EngineRegistry::require(Method method) const {
  const Engine* engine = find(method);
  if (!engine) {
    throw std::invalid_argument("no engine registered for requested method");
  }
  return *engine;
}

std::vector<const Engine*> EngineRegistry::engines() const {
  std::vector<const Engine*> out;
  out.reserve(engines_.size());
  for (const auto& engine : engines_) out.push_back(engine.get());
  return out;
}

}  // namespace streamrel
