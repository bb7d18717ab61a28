// Offline analysis of a trace written by `reliability_cli --trace` (or
// any Tracer::export_chrome_json_to_file() output): aggregates the
// Chrome trace-events into a per-phase SELF-TIME table — each span's
// duration minus the time spent in spans nested inside it on the same
// thread — so the hot phase is visible even when spans wrap each other
// (compute_reliability > bottleneck > side_array_s > build_side_array).
//
//   trace_report trace.json [--telemetry report.json] [--csv] [--top N]
//
// Accepts any of:
//   * a single Chrome trace object {"traceEvents": [...]} — the classic
//     Tracer export and the flight recorder's PREFIX.trace.json;
//   * a bare JSON array of trace events (Chrome's array format);
//   * a per-request trace BUNDLE: several trace documents concatenated
//     in one file (one per line or back to back), as produced by
//     dumping TraceCapture spans request by request.
// Documents and pids are kept apart when computing self time — spans
// from different requests never nest into each other even when their
// timestamps overlap.
//
// --telemetry merges a solve report produced by `reliability_cli --json`
// (either the whole report object or a bare telemetry tree): its
// counters and timers are flattened into a second table so one document
// answers both "where did the time go" (spans) and "what did the solver
// do" (counters). See docs/OBSERVABILITY.md.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "streamrel/util/cli.hpp"
#include "streamrel/util/json.hpp"
#include "streamrel/util/table.hpp"

using namespace streamrel;

namespace {

struct SpanRow {
  std::string name;
  std::string category;
  /// Dense containment-lane id: one lane per (document, pid, tid), so
  /// self-time nesting never crosses requests in a bundle.
  std::uint64_t lane = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

struct PhaseAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Assigns a dense lane per (document, pid, tid) and appends the
/// document's complete events to `spans`.
void load_spans(const JsonValue& events, std::size_t doc_index,
                std::map<std::tuple<std::size_t, double, double>,
                         std::uint64_t>& lanes,
                std::vector<SpanRow>& spans) {
  for (const JsonValue& e : events.as_array()) {
    const JsonValue* ph = e.find("ph");
    if (!ph || ph->as_string() != "X") continue;  // only complete events
    SpanRow row;
    row.name = e.find("name") ? e.find("name")->as_string() : "?";
    if (const JsonValue* cat = e.find("cat")) row.category = cat->as_string();
    double pid = 0.0;
    double tid = 0.0;
    if (const JsonValue* p = e.find("pid")) pid = p->as_number();
    if (const JsonValue* t = e.find("tid")) tid = t->as_number();
    const auto [it, inserted] = lanes.try_emplace(
        std::make_tuple(doc_index, pid, tid),
        static_cast<std::uint64_t>(lanes.size()));
    row.lane = it->second;
    if (const JsonValue* ts = e.find("ts")) row.ts_us = ts->as_number();
    if (const JsonValue* dur = e.find("dur")) row.dur_us = dur->as_number();
    spans.push_back(std::move(row));
  }
}

/// The "traceEvents" array of one trace document; a bare top-level
/// array IS the events array (Chrome's array format).
const JsonValue& events_of(const JsonValue& doc) {
  if (doc.is_array()) return doc;
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    throw std::invalid_argument("no \"traceEvents\" array");
  }
  return *events;
}

/// Loads one trace file that may hold one document or a bundle of
/// several (concatenated or one per line). Returns the spans of every
/// document, lane-separated; `documents` reports how many were found.
std::vector<SpanRow> load_bundle(const std::string& text,
                                 std::size_t& documents) {
  std::map<std::tuple<std::size_t, double, double>, std::uint64_t> lanes;
  std::vector<SpanRow> spans;
  documents = 0;
  try {
    const JsonValue doc = parse_json(text);
    load_spans(events_of(doc), documents++, lanes, spans);
    return spans;
  } catch (const std::invalid_argument&) {
    // Not a single document — fall through to bundle parsing. A
    // missing-traceEvents error also lands here and gets rethrown by
    // the per-document pass below with a document index attached.
  }
  // Bundle: split into documents one top-level value at a time. Each
  // document starts at '{' or '['; find its end by brace counting
  // outside strings (the exporters never break a string across
  // documents).
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (std::isspace(static_cast<unsigned char>(
                                     text[pos])) != 0 ||
                                 text[pos] == ',')) {
      ++pos;
    }
    if (pos >= text.size()) break;
    const std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (; pos < text.size(); ++pos) {
      const char c = text[pos];
      if (in_string) {
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) {
          ++pos;
          break;
        }
      }
    }
    const std::string chunk = text.substr(start, pos - start);
    try {
      const JsonValue doc = parse_json(chunk);
      load_spans(events_of(doc), documents++, lanes, spans);
    } catch (const std::exception& e) {
      throw std::invalid_argument("bundle document " +
                                  std::to_string(documents) + ": " + e.what());
    }
  }
  if (documents == 0) throw std::invalid_argument("no trace documents found");
  return spans;
}

// Self time via interval containment per thread: sort by start (ties:
// longer span first, so the parent precedes its children), keep a stack
// of open ancestors, and charge each span's duration to its nearest
// enclosing span.
std::map<std::pair<std::string, std::string>, PhaseAgg> aggregate(
    std::vector<SpanRow>& spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRow& a, const SpanRow& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;
                   });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].lane != spans[i].lane ||
            spans[stack.back()].ts_us + spans[stack.back()].dur_us <=
                spans[i].ts_us)) {
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += spans[i].dur_us;
    stack.push_back(i);
  }
  std::map<std::pair<std::string, std::string>, PhaseAgg> agg;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    PhaseAgg& slot = agg[{spans[i].name, spans[i].category}];
    slot.count += 1;
    slot.total_us += spans[i].dur_us;
    slot.self_us += std::max(0.0, spans[i].dur_us - child_us[i]);
  }
  return agg;
}

// Depth-first flatten of a telemetry tree ("side_s": {...} children
// become "side_s/..."). Non-number leaves (histogram objects) recurse
// like children.
void flatten_telemetry(const JsonValue& node, const std::string& prefix,
                       TextTable& table) {
  if (!node.is_object()) return;
  for (const auto& [key, value] : node.as_object()) {
    const std::string path = prefix.empty() ? key : prefix + "/" + key;
    if (value.is_number()) {
      table.new_row().add_cell(path).add_cell(value.as_number(), 6);
    } else if (value.is_object()) {
      flatten_telemetry(value, path, table);
    } else if (value.is_null()) {
      table.new_row().add_cell(path).add_cell("null");
    }
  }
}

int run(const CliArgs& args) {
  if (args.positional().empty()) {
    std::cerr << "usage: trace_report trace.json [--telemetry report.json] "
                 "[--csv] [--top N]\n";
    return 2;
  }
  std::size_t documents = 0;
  std::vector<SpanRow> spans =
      load_bundle(read_file(args.positional().front()), documents);
  auto agg = aggregate(spans);

  // Rank by self time: that is the column that tells you where the
  // wall-clock actually went.
  std::vector<std::pair<std::pair<std::string, std::string>, PhaseAgg>> rows(
      agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  const double self_sum = std::accumulate(
      rows.begin(), rows.end(), 0.0,
      [](double acc, const auto& r) { return acc + r.second.self_us; });
  const auto top = static_cast<std::size_t>(
      args.get_int("top", static_cast<std::int64_t>(rows.size())));

  TextTable table(
      {"span", "category", "count", "total_ms", "self_ms", "self_%"});
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const auto& [key, phase] = rows[i];
    table.new_row()
        .add_cell(key.first)
        .add_cell(key.second)
        .add_cell(phase.count)
        .add_cell(phase.total_us / 1000.0, 4)
        .add_cell(phase.self_us / 1000.0, 4)
        .add_cell(self_sum > 0.0 ? 100.0 * phase.self_us / self_sum : 0.0, 3);
  }
  const bool csv = args.get_bool("csv");
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << spans.size() << " spans in " << documents
              << (documents == 1 ? " document, " : " documents, ")
              << format_double(self_sum / 1000.0, 4)
              << " ms total self time\n";
    table.print(std::cout);
  }

  if (args.has("telemetry")) {
    const JsonValue report = parse_json(read_file(args.get("telemetry", "")));
    // Accept a full --json solve report or a bare telemetry object.
    const JsonValue* telemetry = report.find("telemetry");
    if (!telemetry) telemetry = &report;
    TextTable counters({"telemetry_key", "value"});
    flatten_telemetry(*telemetry, "", counters);
    if (csv) {
      counters.print_csv(std::cout);
    } else {
      std::cout << "\ntelemetry (flattened):\n";
      counters.print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
