#pragma once
// The versioned wire schema — ONE request/response language shared by
// every JSON entry point: the reliability service daemon
// (tools/streamrel_serve, server/), the CLI's --batch and --replay modes
// (which are just stdin/stdout clients of the same protocol), and the CI
// validator (tools/wire_check).
//
// Framing is newline-delimited JSON: one request object per line, one
// response object per line. Requests carry an explicit schema version
// ("v": kWireSchemaVersion) and an opaque "id" echoed verbatim in the
// response, so clients can pipeline requests and match answers out of
// order (scheduled verbs may complete in any order).
//
// Request envelope (members beyond the verb's payload are optional):
//
//   {"v": 1, "id": 7, "verb": "solve", "tenant": "alpha",
//    "network_id": "default", "lane": "interactive",
//    "deadline_ms": 50, "max_threads": 0,
//    "telemetry": false, "trace": false, ...payload...}
//
// Verbs and payloads:
//   register_network  "network" (.net text, graph/io format), optional
//                     default demand ("source"/"sink"/"d") and
//                     "max_mask_tables" (per-session cache budget)
//   solve             "source"/"sink"/"d" (defaults from registration),
//                     "method", "overrides": [{"edge", "p"}, ...]
//   batch             "queries": [solve-payload objects, each may add a
//                     per-query "deadline_ms"]
//   apply_delta       the NetworkDelta key language of sim/event_stream
//                     ("set_failure_prob"/"set_capacity"/"add_nodes"/
//                     "add_edge"/"remove_edge"/"remove_node")
//   replay            "events": [churn event objects], "cold": bool
//   stats             none
//   metrics           none (result: Prometheus text + series count)
//   dump              optional "path" (file prefix for the flight-
//                     recorder bundle; records also returned inline)
//   persist           none (checkpoint the session's durable store now;
//                     requires the daemon to run with --state-dir)
//   restore           none (reload the session from its durable store,
//                     replacing the live one)
//   shutdown          none (under --state-dir, checkpoints every
//                     session before draining)
//
// Response envelope:
//
//   {"v": 1, "id": 7, "verb": "solve", "ok": true, "result": {...}}
//   {"v": 1, "id": 7, "verb": "solve", "ok": false,
//    "error": {"code": "bad_request", "message": "..."}}
//
// Error contract mirrors the library's: protocol and usage errors
// (parse_error, bad_request, unsupported_version, unknown_verb,
// unknown_network, overloaded, state_corrupt, internal) are
// "ok": false; a deadline or
// budget stop is NOT an error — it is an "ok": true result whose
// "status" is the SolveStatus string with reliability bounds attached,
// exactly like the in-process no-throw contract.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "streamrel/core/batch_evaluator.hpp"
#include "streamrel/core/reliability_facade.hpp"
#include "streamrel/sim/churn_replay.hpp"
#include "streamrel/sim/event_stream.hpp"
#include "streamrel/util/json.hpp"

namespace streamrel {

/// Bumped on every incompatible change to the request/response grammar
/// (independent of STREAMREL_API_VERSION, which tracks the C++ surface).
inline constexpr int kWireSchemaVersion = 1;

/// Longest request line either transport buffers. A longer line gets one
/// parse_error and is never held whole: the stream transport skips to
/// the next newline, the TCP transport closes the connection.
inline constexpr std::size_t kMaxWireLineBytes = std::size_t{16} << 20;

enum class WireVerb {
  kRegisterNetwork,  ///< bind a network (+ default demand) to tenant ids
  kSolve,            ///< one what-if query against a registered session
  kBatch,            ///< many what-if queries through one BatchEvaluator
  kApplyDelta,       ///< churn edit batch, cut-scoped cache invalidation
  kReplay,           ///< R(t) of an inline event stream (read-only)
  kStats,            ///< live telemetry / lane / session metrics
  kMetrics,          ///< Prometheus text-format exposition scrape
  kDump,             ///< flight-recorder dump (last N request records)
  kPersist,          ///< checkpoint the session's durable store now
  kRestore,          ///< reload the session from its durable store
  kShutdown,         ///< stop serving after in-flight work drains
};

std::string_view to_string(WireVerb verb) noexcept;
bool parse_wire_verb(std::string_view name, WireVerb* out) noexcept;

/// Scheduler lane. Interactive what-ifs share the whole worker pool;
/// bulk work (batch/replay, the default lane for those verbs) is capped
/// to a share of it so sweeps cannot starve point queries.
enum class WireLane {
  kInteractive,
  kBulk,
};

std::string_view to_string(WireLane lane) noexcept;

/// Shared --method / "method" vocabulary (auto, naive, factoring,
/// bottleneck, frontier, hybrid). Returns false on an unknown name.
bool parse_method_name(std::string_view name, Method* out) noexcept;

/// One solve payload. Unset demand members fall back to the demand the
/// network was registered with (the CLI registers the file's demand).
struct WireQuery {
  std::optional<NodeId> source;
  std::optional<NodeId> sink;
  std::optional<Capacity> rate;
  Method method = Method::kAuto;
  double deadline_ms = 0.0;  ///< per-query budget inside a batch (0 = none)
  std::vector<ProbOverride> overrides;
};

struct WireRequest {
  int version = kWireSchemaVersion;
  /// The "id" member as rendered JSON (number, string or "null"),
  /// echoed verbatim in the response.
  std::string id_json = "null";
  WireVerb verb = WireVerb::kStats;
  std::string tenant = "default";
  std::string network_id = "default";
  /// Defaults per verb: batch/replay land in kBulk unless the request
  /// names a lane, everything else in kInteractive.
  WireLane lane = WireLane::kInteractive;
  double deadline_ms = 0.0;  ///< request budget; lane budgets also apply
  int max_threads = 0;
  bool want_telemetry = false;  ///< attach the telemetry tree to results
  bool want_trace = false;      ///< attach a per-request span summary
  // register_network
  std::string network_text;  ///< graph/io .net text
  std::optional<std::size_t> max_mask_tables;
  // solve (also the default demand of register_network)
  WireQuery query;
  // batch
  std::vector<WireQuery> queries;
  // apply_delta
  NetworkDelta delta;
  // replay
  EventStream events;
  bool cold = false;
  // dump
  std::string dump_path;  ///< file prefix for the bundle ("" = inline only)
};

struct WireResponse {
  std::string id_json = "null";
  std::string verb;  ///< empty when the request line never parsed
  bool ok = true;
  std::string error_code;     ///< set when !ok
  std::string error_message;  ///< set when !ok
  std::string result_json = "{}";  ///< rendered object, set when ok
  /// CLI compatibility payload: the exact per-query / per-event JSON
  /// lines and summary line the pre-daemon --batch/--replay modes
  /// printed, byte-for-byte. Not part of the wire envelope.
  std::vector<std::string> legacy_lines;
  std::string legacy_summary;
};

/// Protocol-level parse/validation failure. `code()` is the wire error
/// code ("parse_error", "bad_request", "unsupported_version",
/// "unknown_verb"); id_json()/verb() carry whatever of the envelope was
/// readable, for error responses that still echo the request id.
class WireParseError : public std::invalid_argument {
 public:
  WireParseError(std::string code, const std::string& message,
                 std::string id_json = "null", std::string verb = {})
      : std::invalid_argument(message),
        code_(std::move(code)),
        id_json_(std::move(id_json)),
        verb_(std::move(verb)) {}

  const std::string& code() const noexcept { return code_; }
  const std::string& id_json() const noexcept { return id_json_; }
  const std::string& verb() const noexcept { return verb_; }

 private:
  std::string code_;
  std::string id_json_;
  std::string verb_;
};

/// Parses one request line. Throws WireParseError on anything the
/// protocol rejects; never returns a half-valid request.
WireRequest parse_wire_request(std::string_view line);

/// Parses one solve payload object (the element grammar of "queries").
/// Throws WireParseError with the documented messages on an unknown
/// method or a malformed override.
WireQuery parse_wire_query(const JsonValue& obj);

std::string serialize_wire_request(const WireRequest& request);
std::string serialize_wire_response(const WireResponse& response);

WireResponse make_wire_error(std::string id_json, std::string_view verb,
                             std::string_view code, std::string_view message);

/// The legacy CLI batch-file grammar ({"queries": [...]} or a bare
/// array, optional "max_mask_tables") as a kBatch request. Throws
/// WireParseError carrying the EXACT error strings the pre-daemon CLI
/// printed ("batch file needs a top-level array or a \"queries\" key",
/// ...); malformed JSON propagates as std::invalid_argument like before.
WireRequest parse_batch_file(std::string_view text);

// --- shared result renderers -------------------------------------------
// One implementation of every JSON line both the CLI and the daemon
// emit, so the two can never drift. All lines come WITHOUT a trailing
// newline; numbers use util/table.hpp's format_double with the
// historical precisions.

std::string render_batch_query_line(std::size_t index,
                                    const FlowDemand& demand,
                                    const SolveReport& report);
std::string render_batch_summary(const BatchReport& batch,
                                 std::uint64_t cache_hits,
                                 std::uint64_t cache_misses,
                                 std::uint64_t cache_evictions,
                                 double elapsed_ms);
std::string render_replay_initial_line(double reliability);
std::string render_replay_event_line(const ReplayEventOutcome& outcome);
std::string render_replay_summary(const ReplayReport& report, bool warm,
                                  double elapsed_ms);
/// Solve result object for the wire ("reliability"/"status"/"method"/
/// "engine"/"links_reduced"/"elapsed_ms" + optional bounds/telemetry).
std::string render_solve_result(const SolveReport& report, double elapsed_ms,
                                bool include_telemetry);

/// Inserts `key`: `value_json` before the closing brace of a rendered
/// object ("{}" handled). value_json must be valid rendered JSON.
void append_json_member(std::string& object_json, std::string_view key,
                        std::string_view value_json);

/// RFC 8259 string literal (quotes included).
std::string json_quote(std::string_view s);

}  // namespace streamrel
