#include "streamrel/api/wire.hpp"

#include <cmath>
#include <cstdio>
#include <map>

#include "streamrel/util/table.hpp"
#include "streamrel/version.hpp"

namespace streamrel {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Doubles that survive a parse round trip (shortest-ish %.17g).
std::string exact_double(double value) { return format_double(value, 17); }

/// The "id" member as rendered JSON. Scalars only: an object/array id
/// cannot be echoed deterministically by a schema-checked response.
std::string render_id(const JsonValue* v) {
  if (!v || v->is_null()) return "null";
  if (v->is_bool()) return v->as_bool() ? "true" : "false";
  if (v->is_number()) {
    const double n = v->as_number();
    if (std::floor(n) == n && std::fabs(n) <= 9.007199254740992e15) {
      return std::to_string(static_cast<long long>(n));
    }
    return exact_double(n);
  }
  if (v->is_string()) return json_quote(v->as_string());
  throw WireParseError("bad_request", "\"id\" must be a scalar");
}

/// Minimal insertion-order JSON object builder for the serializers.
class ObjectWriter {
 public:
  void member(std::string_view key, std::string_view raw_value) {
    out_ += first_ ? "\"" : ", \"";
    first_ = false;
    append_escaped(out_, key);
    out_ += "\": ";
    out_ += raw_value;
  }
  void member_str(std::string_view key, std::string_view value) {
    member(key, json_quote(value));
  }
  void member_int(std::string_view key, std::int64_t value) {
    member(key, std::to_string(value));
  }
  void member_double(std::string_view key, double value) {
    member(key, exact_double(value));
  }
  void member_bool(std::string_view key, bool value) {
    member(key, value ? "true" : "false");
  }
  std::string take() && { return "{" + std::move(out_) + "}"; }

 private:
  std::string out_;
  bool first_ = true;
};

void write_query_members(ObjectWriter& w, const WireQuery& q) {
  if (q.source) w.member_int("source", *q.source);
  if (q.sink) w.member_int("sink", *q.sink);
  if (q.rate) w.member_int("d", *q.rate);
  if (q.method != Method::kAuto) w.member_str("method", to_string(q.method));
  if (q.deadline_ms > 0.0) w.member_double("deadline_ms", q.deadline_ms);
  if (!q.overrides.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < q.overrides.size(); ++i) {
      if (i) arr += ", ";
      arr += "{\"edge\": " + std::to_string(q.overrides[i].edge) +
             ", \"p\": " + exact_double(q.overrides[i].failure_prob) + "}";
    }
    arr += "]";
    w.member("overrides", arr);
  }
}

void write_delta_members(ObjectWriter& w, const NetworkDelta& delta) {
  if (!delta.prob_edits.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < delta.prob_edits.size(); ++i) {
      if (i) arr += ", ";
      arr += "{\"edge\": " + std::to_string(delta.prob_edits[i].edge) +
             ", \"p\": " + exact_double(delta.prob_edits[i].failure_prob) +
             "}";
    }
    w.member("set_failure_prob", arr + "]");
  }
  if (!delta.capacity_edits.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < delta.capacity_edits.size(); ++i) {
      if (i) arr += ", ";
      arr += "{\"edge\": " + std::to_string(delta.capacity_edits[i].edge) +
             ", \"c\": " + std::to_string(delta.capacity_edits[i].capacity) +
             "}";
    }
    w.member("set_capacity", arr + "]");
  }
  if (delta.nodes_added != 0) w.member_int("add_nodes", delta.nodes_added);
  if (!delta.edge_adds.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < delta.edge_adds.size(); ++i) {
      const NetworkDelta::EdgeAdd& e = delta.edge_adds[i];
      if (i) arr += ", ";
      arr += "{\"u\": " + std::to_string(e.u) +
             ", \"v\": " + std::to_string(e.v) +
             ", \"c\": " + std::to_string(e.capacity) +
             ", \"p\": " + exact_double(e.failure_prob);
      if (e.kind == EdgeKind::kDirected) arr += ", \"directed\": true";
      arr += "}";
    }
    w.member("add_edge", arr + "]");
  }
  if (!delta.edge_removes.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < delta.edge_removes.size(); ++i) {
      if (i) arr += ", ";
      arr += std::to_string(delta.edge_removes[i]);
    }
    w.member("remove_edge", arr + "]");
  }
  if (!delta.node_removes.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < delta.node_removes.size(); ++i) {
      if (i) arr += ", ";
      arr += std::to_string(delta.node_removes[i]);
    }
    w.member("remove_node", arr + "]");
  }
}

std::string write_event(const ChurnEvent& event) {
  ObjectWriter w;
  w.member_double("time", event.time);
  if (!event.label.empty()) w.member_str("label", event.label);
  write_delta_members(w, event.delta);
  return std::move(w).take();
}

WireLane default_lane(WireVerb verb) noexcept {
  return (verb == WireVerb::kBatch || verb == WireVerb::kReplay)
             ? WireLane::kBulk
             : WireLane::kInteractive;
}

std::size_t parse_mask_budget(const JsonValue& v) {
  const double n = v.as_number();
  if (n < 0.0 || n != std::floor(n)) {
    throw std::invalid_argument("\"max_mask_tables\" must be a whole number");
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

void append_json_member(std::string& object_json, std::string_view key,
                        std::string_view value_json) {
  if (object_json.size() < 2 || object_json.back() != '}') object_json = "{}";
  object_json.pop_back();
  if (object_json.size() > 1) object_json += ", ";
  object_json += '"';
  append_escaped(object_json, key);
  object_json += "\": ";
  object_json += value_json;
  object_json += '}';
}

std::string_view to_string(WireVerb verb) noexcept {
  switch (verb) {
    case WireVerb::kRegisterNetwork: return "register_network";
    case WireVerb::kSolve: return "solve";
    case WireVerb::kBatch: return "batch";
    case WireVerb::kApplyDelta: return "apply_delta";
    case WireVerb::kReplay: return "replay";
    case WireVerb::kStats: return "stats";
    case WireVerb::kMetrics: return "metrics";
    case WireVerb::kDump: return "dump";
    case WireVerb::kPersist: return "persist";
    case WireVerb::kRestore: return "restore";
    case WireVerb::kShutdown: return "shutdown";
  }
  return "unknown";
}

bool parse_wire_verb(std::string_view name, WireVerb* out) noexcept {
  if (name == "register_network") {
    *out = WireVerb::kRegisterNetwork;
  } else if (name == "solve") {
    *out = WireVerb::kSolve;
  } else if (name == "batch") {
    *out = WireVerb::kBatch;
  } else if (name == "apply_delta") {
    *out = WireVerb::kApplyDelta;
  } else if (name == "replay") {
    *out = WireVerb::kReplay;
  } else if (name == "stats") {
    *out = WireVerb::kStats;
  } else if (name == "metrics") {
    *out = WireVerb::kMetrics;
  } else if (name == "dump") {
    *out = WireVerb::kDump;
  } else if (name == "persist") {
    *out = WireVerb::kPersist;
  } else if (name == "restore") {
    *out = WireVerb::kRestore;
  } else if (name == "shutdown") {
    *out = WireVerb::kShutdown;
  } else {
    return false;
  }
  return true;
}

std::string_view to_string(WireLane lane) noexcept {
  return lane == WireLane::kInteractive ? "interactive" : "bulk";
}

bool parse_method_name(std::string_view name, Method* out) noexcept {
  if (name == "auto") {
    *out = Method::kAuto;
  } else if (name == "naive") {
    *out = Method::kNaive;
  } else if (name == "factoring") {
    *out = Method::kFactoring;
  } else if (name == "bottleneck") {
    *out = Method::kBottleneck;
  } else if (name == "frontier") {
    *out = Method::kFrontier;
  } else if (name == "hybrid") {
    *out = Method::kHybridMc;
  } else {
    return false;
  }
  return true;
}

WireQuery parse_wire_query(const JsonValue& obj) {
  WireQuery q;
  if (const JsonValue* v = obj.find("source")) {
    q.source = static_cast<NodeId>(v->as_number());
  }
  if (const JsonValue* v = obj.find("sink")) {
    q.sink = static_cast<NodeId>(v->as_number());
  }
  if (const JsonValue* v = obj.find("d")) {
    q.rate = static_cast<Capacity>(v->as_number());
  }
  if (const JsonValue* v = obj.find("deadline_ms")) {
    q.deadline_ms = v->as_number();
  }
  if (const JsonValue* v = obj.find("method")) {
    if (!parse_method_name(v->as_string(), &q.method)) {
      throw WireParseError(
          "bad_request", "unknown method '" + v->as_string() + "' in batch file");
    }
  }
  if (const JsonValue* v = obj.find("overrides")) {
    for (const JsonValue& o : v->as_array()) {
      const JsonValue* edge = o.find("edge");
      const JsonValue* p = o.find("p");
      if (!edge || !p) {
        throw WireParseError("bad_request",
                             "override needs \"edge\" and \"p\" members");
      }
      q.overrides.push_back(ProbOverride{
          static_cast<EdgeId>(edge->as_number()), p->as_number()});
    }
  }
  return q;
}

WireRequest parse_wire_request(std::string_view line) {
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const std::invalid_argument& e) {
    throw WireParseError("parse_error", e.what());
  }
  if (!doc.is_object()) {
    throw WireParseError("bad_request", "request must be a JSON object");
  }

  WireRequest req;
  req.id_json = render_id(doc.find("id"));

  const JsonValue* version = doc.find("v");
  if (!version || !version->is_number()) {
    throw WireParseError("bad_request",
                         "missing \"v\" (wire schema version)", req.id_json);
  }
  req.version = static_cast<int>(version->as_number());
  if (req.version != kWireSchemaVersion) {
    throw WireParseError(
        "unsupported_version",
        "unsupported wire schema version " + std::to_string(req.version) +
            " (this build speaks " + std::to_string(kWireSchemaVersion) + ")",
        req.id_json);
  }

  const JsonValue* verb = doc.find("verb");
  if (!verb || !verb->is_string()) {
    throw WireParseError("bad_request", "missing \"verb\"", req.id_json);
  }
  if (!parse_wire_verb(verb->as_string(), &req.verb)) {
    throw WireParseError("unknown_verb",
                         "unknown verb '" + verb->as_string() + "'",
                         req.id_json);
  }

  try {
    if (const JsonValue* t = doc.find("tenant")) req.tenant = t->as_string();
    if (const JsonValue* n = doc.find("network_id")) {
      req.network_id = n->as_string();
    }
    req.lane = default_lane(req.verb);
    if (const JsonValue* lane = doc.find("lane")) {
      const std::string& name = lane->as_string();
      if (name == "interactive") {
        req.lane = WireLane::kInteractive;
      } else if (name == "bulk") {
        req.lane = WireLane::kBulk;
      } else {
        throw std::invalid_argument("unknown lane '" + name + "'");
      }
    }
    if (const JsonValue* v = doc.find("deadline_ms")) {
      req.deadline_ms = v->as_number();
    }
    if (const JsonValue* v = doc.find("max_threads")) {
      req.max_threads = static_cast<int>(v->as_number());
    }
    if (const JsonValue* v = doc.find("telemetry")) {
      req.want_telemetry = v->as_bool();
    }
    if (const JsonValue* v = doc.find("trace")) req.want_trace = v->as_bool();

    switch (req.verb) {
      case WireVerb::kRegisterNetwork: {
        const JsonValue* net = doc.find("network");
        if (!net) {
          throw std::invalid_argument(
              "register_network needs a \"network\" member (.net text)");
        }
        req.network_text = net->as_string();
        req.query = parse_wire_query(doc);
        if (const JsonValue* v = doc.find("max_mask_tables")) {
          req.max_mask_tables = parse_mask_budget(*v);
        }
        break;
      }
      case WireVerb::kSolve:
        req.query = parse_wire_query(doc);
        break;
      case WireVerb::kBatch: {
        const JsonValue* qs = doc.find("queries");
        if (!qs || !qs->is_array()) {
          throw std::invalid_argument("batch needs a \"queries\" array");
        }
        req.queries.reserve(qs->as_array().size());
        for (const JsonValue& entry : qs->as_array()) {
          req.queries.push_back(parse_wire_query(entry));
        }
        if (const JsonValue* v = doc.find("max_mask_tables")) {
          req.max_mask_tables = parse_mask_budget(*v);
        }
        break;
      }
      case WireVerb::kApplyDelta:
        req.delta = parse_delta_json(doc);
        break;
      case WireVerb::kReplay: {
        const JsonValue* ev = doc.find("events");
        if (!ev || !ev->is_array()) {
          throw std::invalid_argument("replay needs an \"events\" array");
        }
        req.events.reserve(ev->as_array().size());
        for (const JsonValue& entry : ev->as_array()) {
          req.events.push_back(parse_churn_event(entry));
        }
        if (const JsonValue* v = doc.find("cold")) req.cold = v->as_bool();
        break;
      }
      case WireVerb::kDump:
        if (const JsonValue* v = doc.find("path")) {
          req.dump_path = v->as_string();
        }
        break;
      case WireVerb::kStats:
      case WireVerb::kMetrics:
      case WireVerb::kPersist:
      case WireVerb::kRestore:
      case WireVerb::kShutdown:
        break;
    }
  } catch (const WireParseError& e) {
    throw WireParseError(e.code(), e.what(), req.id_json,
                         std::string(to_string(req.verb)));
  } catch (const std::invalid_argument& e) {
    throw WireParseError("bad_request", e.what(), req.id_json,
                         std::string(to_string(req.verb)));
  }
  return req;
}

WireRequest parse_batch_file(std::string_view text) {
  const JsonValue doc = parse_json(text);
  const JsonValue* list = doc.is_array() ? &doc : doc.find("queries");
  if (!list || !list->is_array()) {
    throw WireParseError(
        "bad_request", "batch file needs a top-level array or a \"queries\" key");
  }
  WireRequest req;
  req.verb = WireVerb::kBatch;
  req.lane = WireLane::kBulk;
  req.queries.reserve(list->as_array().size());
  for (const JsonValue& entry : list->as_array()) {
    req.queries.push_back(parse_wire_query(entry));
  }
  if (const JsonValue* v = doc.find("max_mask_tables")) {
    req.max_mask_tables = parse_mask_budget(*v);
  }
  return req;
}

std::string serialize_wire_request(const WireRequest& request) {
  ObjectWriter w;
  w.member_int("v", request.version);
  w.member("id", request.id_json);
  w.member_str("verb", to_string(request.verb));
  if (request.tenant != "default") w.member_str("tenant", request.tenant);
  if (request.network_id != "default") {
    w.member_str("network_id", request.network_id);
  }
  if (request.lane != default_lane(request.verb)) {
    w.member_str("lane", to_string(request.lane));
  }
  if (request.deadline_ms > 0.0) {
    w.member_double("deadline_ms", request.deadline_ms);
  }
  if (request.max_threads != 0) w.member_int("max_threads", request.max_threads);
  if (request.want_telemetry) w.member_bool("telemetry", true);
  if (request.want_trace) w.member_bool("trace", true);

  switch (request.verb) {
    case WireVerb::kRegisterNetwork:
      w.member_str("network", request.network_text);
      write_query_members(w, request.query);
      if (request.max_mask_tables) {
        w.member_int("max_mask_tables",
                     static_cast<std::int64_t>(*request.max_mask_tables));
      }
      break;
    case WireVerb::kSolve:
      write_query_members(w, request.query);
      break;
    case WireVerb::kBatch: {
      std::string arr = "[";
      for (std::size_t i = 0; i < request.queries.size(); ++i) {
        if (i) arr += ", ";
        ObjectWriter qw;
        write_query_members(qw, request.queries[i]);
        arr += std::move(qw).take();
      }
      w.member("queries", arr + "]");
      if (request.max_mask_tables) {
        w.member_int("max_mask_tables",
                     static_cast<std::int64_t>(*request.max_mask_tables));
      }
      break;
    }
    case WireVerb::kApplyDelta:
      write_delta_members(w, request.delta);
      break;
    case WireVerb::kReplay: {
      std::string arr = "[";
      for (std::size_t i = 0; i < request.events.size(); ++i) {
        if (i) arr += ", ";
        arr += write_event(request.events[i]);
      }
      w.member("events", arr + "]");
      if (request.cold) w.member_bool("cold", true);
      break;
    }
    case WireVerb::kDump:
      if (!request.dump_path.empty()) w.member_str("path", request.dump_path);
      break;
    case WireVerb::kStats:
    case WireVerb::kMetrics:
    case WireVerb::kPersist:
    case WireVerb::kRestore:
    case WireVerb::kShutdown:
      break;
  }
  return std::move(w).take();
}

std::string serialize_wire_response(const WireResponse& response) {
  std::string out = "{\"v\": " + std::to_string(kWireSchemaVersion) +
                    ", \"id\": " + response.id_json +
                    ", \"verb\": " + json_quote(response.verb) +
                    ", \"ok\": " + (response.ok ? "true" : "false");
  if (response.ok) {
    out += ", \"result\": " + response.result_json;
  } else {
    out += ", \"error\": {\"code\": " + json_quote(response.error_code) +
           ", \"message\": " + json_quote(response.error_message) + "}";
  }
  out += "}";
  return out;
}

WireResponse make_wire_error(std::string id_json, std::string_view verb,
                             std::string_view code, std::string_view message) {
  WireResponse resp;
  resp.id_json = std::move(id_json);
  resp.verb.assign(verb);
  resp.ok = false;
  resp.error_code.assign(code);
  resp.error_message.assign(message);
  resp.result_json.clear();
  return resp;
}

// --- renderers ---------------------------------------------------------

std::string render_batch_query_line(std::size_t index,
                                    const FlowDemand& demand,
                                    const SolveReport& report) {
  std::string out = "{\"query\": " + std::to_string(index) +
                    ", \"source\": " + std::to_string(demand.source) +
                    ", \"sink\": " + std::to_string(demand.sink) +
                    ", \"d\": " + std::to_string(demand.rate) +
                    ", \"reliability\": " +
                    format_double(report.result.reliability, 10) +
                    ", \"status\": \"" +
                    std::string(to_string(report.result.status)) +
                    "\", \"method\": \"" +
                    std::string(to_string(report.method_used)) +
                    "\", \"engine\": \"" + std::string(report.engine) + "\"";
  if (report.bounds) {
    out += ", \"bounds\": {\"lower\": " +
           format_double(report.bounds->lower, 10) +
           ", \"upper\": " + format_double(report.bounds->upper, 10) + "}";
  }
  out += "}";
  return out;
}

std::string render_batch_summary(const BatchReport& batch,
                                 std::uint64_t cache_hits,
                                 std::uint64_t cache_misses,
                                 std::uint64_t cache_evictions,
                                 double elapsed_ms) {
  // Engines that actually answered (post-kAuto resolution), by count.
  std::map<std::string, int> engines;
  for (const SolveReport& report : batch.reports) {
    engines[std::string(report.engine)]++;
  }
  std::string out =
      "{\"summary\": {\"api_version\": " +
      std::to_string(STREAMREL_API_VERSION) +
      ", \"queries\": " + std::to_string(batch.reports.size()) +
      ", \"exact\": " + std::to_string(batch.exact_count) +
      ", \"cache_hits\": " + std::to_string(cache_hits) +
      ", \"cache_misses\": " + std::to_string(cache_misses) +
      ", \"cache_evictions\": " + std::to_string(cache_evictions) +
      ", \"elapsed_ms\": " + format_double(elapsed_ms, 4) + ", \"engines\": {";
  bool first = true;
  for (const auto& [engine, count] : engines) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + engine + "\": " + std::to_string(count);
  }
  out += "}, \"telemetry\": " + batch.telemetry.to_json() + "}}";
  return out;
}

std::string render_replay_initial_line(double reliability) {
  return "{\"t\": 0, \"reliability\": " + format_double(reliability, 10) + "}";
}

std::string render_replay_event_line(const ReplayEventOutcome& outcome) {
  std::string out = "{\"t\": " + format_double(outcome.time, 6) +
                    ", \"label\": \"";
  append_escaped(out, outcome.label);
  out += "\", \"class\": \"" + std::string(to_string(outcome.applied)) +
         "\", \"reliability\": " + format_double(outcome.reliability, 10) +
         ", \"delta_r\": " + format_double(outcome.delta_r, 10) +
         ", \"cache\": {\"full\": " + std::to_string(outcome.entries_full) +
         ", \"partial\": " + std::to_string(outcome.entries_partial) +
         ", \"survived\": " + std::to_string(outcome.entries_survived) + "}}";
  return out;
}

std::string render_replay_summary(const ReplayReport& report, bool warm,
                                  double elapsed_ms) {
  std::string out = "{\"summary\": {\"mode\": \"";
  out += warm ? "warm" : "cold";
  out += "\", \"events\": " + std::to_string(report.series.size()) +
         ", \"final_reliability\": " +
         format_double(report.final_reliability, 10) +
         ", \"worst_event\": " + std::to_string(report.worst_event);
  if (report.worst_event >= 0) {
    out += ", \"worst_label\": \"";
    append_escaped(
        out, report.series[static_cast<std::size_t>(report.worst_event)].label);
    out += "\"";
  }
  out += ", \"artifact_survival_rate\": " +
         format_double(report.artifact_survival_rate, 6) +
         ", \"elapsed_ms\": " + format_double(elapsed_ms, 4) + "}}";
  return out;
}

std::string render_solve_result(const SolveReport& report, double elapsed_ms,
                                bool include_telemetry) {
  std::string out =
      "{\"reliability\": " + format_double(report.result.reliability, 10) +
      ", \"status\": \"" + std::string(to_string(report.result.status)) +
      "\", \"method\": \"" + std::string(to_string(report.method_used)) +
      "\", \"engine\": \"" + std::string(report.engine) +
      "\", \"links_reduced\": " + std::to_string(report.links_reduced) +
      ", \"elapsed_ms\": " + format_double(elapsed_ms, 4);
  if (report.bounds) {
    out += ", \"bounds\": {\"lower\": " +
           format_double(report.bounds->lower, 10) +
           ", \"upper\": " + format_double(report.bounds->upper, 10) + "}";
  }
  if (include_telemetry) {
    out += ", \"telemetry\": " + report.result.telemetry.to_json();
  }
  out += "}";
  return out;
}

}  // namespace streamrel
