// Diffs two schema-versioned bench records (bench_harness.hpp) and fails
// when the new run regressed. CI's perf gate runs a bench twice — once on
// the base commit, once on the head — and pipes both BENCH_*.json files
// through this tool:
//
//   bench_compare BENCH_old.json BENCH_new.json [--threshold=0.30]
//                 [--floor=key:value,key:value,...]
//                 [--ceil=key:value,key:value,...]
//
// Comparison rules, applied per metric key present in BOTH records:
//   * keys ending in "_ms" (wall times): fail when new > old * (1 + t),
//     where t is --threshold (default 0.30 — benches share CI machines,
//     so small ratios just measure noise);
//   * boolean metrics: fail on any true -> false flip (these encode
//     invariants like "identical": bitwise-equal side arrays);
//   * keys ending in "_coverage" (fractions of work answered by a fast
//     path, e.g. the side sweep's closure-decided share) and keys ending
//     in "_survival_rate" (fraction of cached artifacts a churn replay
//     kept alive across deltas): fail when new < old * (1 - t) — a drop
//     silently shifts work onto the slow path and shows up as a perf
//     regression one commit later;
//   * keys ending in "_series_count" (metric-registry cardinality): fail
//     when new > old * 2 — a label accidentally carrying an unbounded
//     value (request id, timestamp) doubles the series set long before
//     it takes down a Prometheus server;
//   * everything else (call counts, sizes, seeds) is informational.
// Metrics present in only one record are reported but never fatal —
// benches grow columns across commits.
//
// --floor adds absolute gates on the NEW record, independent of the old
// run: "replay.artifact_survival_rate:0.5" fails when the metric is
// missing, non-numeric, or below 0.5. Use it for invariants with a
// physical meaning (a minimum speedup, a survival rate) where "no worse
// than the base commit" is too weak a promise. --ceil is the mirror
// image — an absolute upper bound on the NEW record
// ("server.scrape_ms:5" fails when the metric is missing, non-numeric,
// or above 5) for latencies with a hard budget.

#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "streamrel/util/cli.hpp"
#include "streamrel/util/json.hpp"

using namespace streamrel;

namespace {

struct BenchRecord {
  std::string bench;
  std::string git;
  JsonValue metrics;
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

struct Gate {
  std::string key;
  double value = 0.0;
};

/// Parses "key:value,key:value" from --floor / --ceil. Keys contain
/// dots, so the split is on the LAST ':' of each comma-separated
/// element. `flag` only labels the parse error.
std::vector<Gate> parse_gates(const std::string& spec,
                              const std::string& flag) {
  std::vector<Gate> gates;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= item.size()) {
      throw std::runtime_error("bad " + flag + " element '" + item +
                               "' (want key:value)");
    }
    Gate gate;
    gate.key = item.substr(0, colon);
    gate.value = std::stod(item.substr(colon + 1));
    gates.push_back(std::move(gate));
    start = end + 1;
  }
  return gates;
}

BenchRecord load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = parse_json(buf.str());

  const JsonValue* schema = doc.find("schema_version");
  if (schema == nullptr || !schema->is_number()) {
    throw std::runtime_error(path + ": not a bench_harness record "
                                    "(missing schema_version)");
  }
  if (schema->as_number() != 1.0) {
    throw std::runtime_error(path + ": unsupported schema_version " +
                             std::to_string(schema->as_number()));
  }
  const JsonValue* bench = doc.find("bench");
  const JsonValue* metrics = doc.find("metrics");
  if (bench == nullptr || !bench->is_string() || metrics == nullptr ||
      !metrics->is_object()) {
    throw std::runtime_error(path + ": malformed record");
  }
  BenchRecord record;
  record.bench = bench->as_string();
  const JsonValue* git = doc.find("git");
  record.git = (git != nullptr && git->is_string()) ? git->as_string() : "?";
  record.metrics = *metrics;
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() != 2) {
    std::cerr << "usage: bench_compare OLD.json NEW.json [--threshold=0.30] "
                 "[--floor=key:value,...] [--ceil=key:value,...]\n";
    return 2;
  }
  const double threshold = args.get_double("threshold", 0.30);

  BenchRecord old_run;
  BenchRecord new_run;
  std::vector<Gate> floors;
  std::vector<Gate> ceils;
  try {
    old_run = load(args.positional()[0]);
    new_run = load(args.positional()[1]);
    floors = parse_gates(args.get("floor", ""), "--floor");
    ceils = parse_gates(args.get("ceil", ""), "--ceil");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (old_run.bench != new_run.bench) {
    std::cerr << "error: comparing different benches ('" << old_run.bench
              << "' vs '" << new_run.bench << "')\n";
    return 2;
  }

  std::cout << "bench " << old_run.bench << ": " << old_run.git << " -> "
            << new_run.git << " (threshold +" << threshold * 100.0 << "%)\n";

  int regressions = 0;
  for (const auto& [key, old_value] : old_run.metrics.as_object()) {
    const JsonValue* new_value = new_run.metrics.find(key);
    if (new_value == nullptr) {
      std::cout << "  ~ " << key << ": dropped in new run\n";
      continue;
    }

    if (old_value.is_bool() && new_value->is_bool()) {
      if (old_value.as_bool() && !new_value->as_bool()) {
        std::cout << "  ! " << key << ": true -> false (invariant broken)\n";
        ++regressions;
      }
      continue;
    }
    if (!old_value.is_number() || !new_value->is_number()) continue;
    const double before = old_value.as_number();
    const double after = new_value->as_number();

    if (ends_with(key, "_ms")) {
      if (after > before * (1.0 + threshold)) {
        std::cout << "  ! " << key << ": " << before << " -> " << after
                  << " ms (+"
                  << (before > 0.0 ? (after / before - 1.0) * 100.0
                                   : std::numeric_limits<double>::infinity())
                  << "%)\n";
        ++regressions;
      }
      continue;
    }
    if (ends_with(key, "_coverage") || ends_with(key, "_survival_rate")) {
      if (before > 0.0 && after < before * (1.0 - threshold)) {
        std::cout << "  ! " << key << ": " << before << " -> " << after
                  << " (-" << (1.0 - after / before) * 100.0
                  << "%, fast-path coverage lost)\n";
        ++regressions;
      }
      continue;
    }
    if (ends_with(key, "_series_count")) {
      if (after > before * 2.0) {
        std::cout << "  ! " << key << ": " << before << " -> " << after
                  << " (more than 2x, metric cardinality explosion)\n";
        ++regressions;
      }
      continue;
    }
  }
  for (const Gate& floor : floors) {
    const JsonValue* value = new_run.metrics.find(floor.key);
    if (value == nullptr || !value->is_number()) {
      std::cout << "  ! " << floor.key << ": missing from new run (floor "
                << floor.value << ")\n";
      ++regressions;
      continue;
    }
    if (value->as_number() < floor.value) {
      std::cout << "  ! " << floor.key << ": " << value->as_number()
                << " below floor " << floor.value << "\n";
      ++regressions;
    }
  }
  for (const Gate& ceil : ceils) {
    const JsonValue* value = new_run.metrics.find(ceil.key);
    if (value == nullptr || !value->is_number()) {
      std::cout << "  ! " << ceil.key << ": missing from new run (ceiling "
                << ceil.value << ")\n";
      ++regressions;
      continue;
    }
    if (value->as_number() > ceil.value) {
      std::cout << "  ! " << ceil.key << ": " << value->as_number()
                << " above ceiling " << ceil.value << "\n";
      ++regressions;
    }
  }
  for (const auto& [key, value] : new_run.metrics.as_object()) {
    static_cast<void>(value);
    if (old_run.metrics.find(key) == nullptr) {
      std::cout << "  ~ " << key << ": new metric\n";
    }
  }

  if (regressions == 0) {
    std::cout << "  ok: no regressions\n";
    return 0;
  }
  std::cout << "  " << regressions << " regression(s)\n";
  return 1;
}
