#pragma once
// ReliabilityService — the verb layer of the daemon: parses wire
// requests, routes them to TenantSessions through the two-lane
// scheduler, and renders wire responses. Transport-agnostic: the TCP
// server, the --stdio mode and the in-process tests all drive the same
// handle_line()/execute() pair.
//
// Deadlines: a request's deadline is fixed once, when it is admitted —
// min(request "deadline_ms", lane budget) counted from that instant —
// so time spent waiting in the scheduler queue counts against it. A
// worker that picks the request up hands the engines only what is left.
//
// Shedding semantics (the no-throw SolveStatus contract on the wire):
// when a compute verb's deadline is already blown by the estimated
// queue wait at admission — or has passed by the time a worker picks
// the job up — the solve runs with no time left, so the machinery
// returns a kDeadlineExpired result with reliability bounds attached.
// The client sees "ok": true with "status": "deadline_expired",
// "bounds" and "shed": true — never a disconnect, never a throw.
// "ok": false is reserved for protocol/usage errors (parse_error,
// bad_request, unsupported_version, unknown_verb, unknown_network,
// overloaded, internal); "overloaded" appears only when a lane queue is
// FULL and the job cannot even be admitted.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "streamrel/api/wire.hpp"
#include "streamrel/obs/flight_recorder.hpp"
#include "streamrel/obs/metrics.hpp"
#include "streamrel/obs/request_log.hpp"
#include "streamrel/server/scheduler.hpp"
#include "streamrel/server/session_registry.hpp"

namespace streamrel {

struct ServiceOptions {
  QueryCacheOptions default_cache;
  /// Global memory cap: total mask-table entries across all sessions.
  std::size_t global_mask_tables = 256;
  /// Lane deadline budgets (0 = none): every request on the lane runs
  /// under min(request deadline, lane budget), counted from admission.
  double interactive_budget_ms = 0.0;
  double bulk_budget_ms = 0.0;
  SchedulerOptions scheduler;
  /// Start the worker pool. Off for in-process clients (the CLI executes
  /// verbs inline); the daemon turns it on.
  bool start_workers = false;
  /// Flight-recorder ring size (last N finished requests, always on;
  /// clamped to >= 1).
  std::size_t flight_capacity = FlightRecorder::kDefaultCapacity;
  /// Structured JSON request log: one line per finished request
  /// (--log-json in the daemon). Null disables with a single branch.
  std::ostream* request_log = nullptr;
  /// Durable session state root (--state-dir). Empty = in-memory only.
  /// When set, the constructor restores every loadable store (corrupt
  /// ones cold-start with a warning in boot_restore()), registrations
  /// and the shutdown verb checkpoint, and apply_delta journals.
  std::string state_dir;
  /// WAL records per session before an inline compaction checkpoint.
  std::size_t wal_compact_threshold = 64;
  /// fsync snapshots and fdatasync journal appends. Off trades crash
  /// durability for latency (tests/benches).
  bool state_fsync = true;
};

/// Per-request sinks, so concurrent tenants never interleave output:
/// progress goes to the request's own reporter (or nowhere), and trace
/// spans are captured per request when it asks for them.
struct RequestHooks {
  std::shared_ptr<ProgressReporter> progress;
};

class ReliabilityService {
 public:
  explicit ReliabilityService(const ServiceOptions& options = {});
  ~ReliabilityService();
  ReliabilityService(const ReliabilityService&) = delete;
  ReliabilityService& operator=(const ReliabilityService&) = delete;

  /// Executes one parsed request synchronously on the calling thread,
  /// admitted now. Inline execution never sheds.
  WireResponse execute(const WireRequest& request,
                       const RequestHooks& hooks = {}) {
    return execute_impl(request, hooks, deadline_from(request, Clock::now()));
  }

  /// Parses and routes one request line. Control verbs run inline;
  /// compute verbs (solve/batch/replay) go through the scheduler when
  /// workers are running. `done` is called exactly once — possibly on a
  /// worker thread, possibly before this returns.
  void handle_line(std::string_view line,
                   std::function<void(WireResponse)> done,
                   const RequestHooks& hooks = {});

  /// Waits for all scheduled work to finish.
  void drain();

  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// The stats verb's payload (also the daemon's periodic metrics line).
  std::string stats_json() const;

  /// Prometheus text-format exposition of every registered series; the
  /// `metrics` verb's text, the TCP transport's `GET /metrics` body and
  /// the daemon's --metrics-out payload. Refreshes the scrape-time
  /// gauges (scheduler lanes, session caches) first; never blocks
  /// request recording (snapshot-on-scrape under a shared lock).
  std::string metrics_text();

  /// The live registry, for instrumentation by embedders and tests.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const FlightRecorder& flight_recorder() const noexcept { return flight_; }

  /// Requests shed on both lanes (streamrel_sheds_total).
  std::uint64_t shed_count() const noexcept {
    return sheds_[0]->value() + sheds_[1]->value();
  }

  /// What the constructor's restore-on-boot pass found under state_dir
  /// (empty report when persistence is off). The daemon logs the
  /// warnings; corrupt stores cold-start, they never crash the boot.
  const BootRestoreReport& boot_restore() const noexcept {
    return boot_restore_;
  }

  /// Builds the structured `overloaded` rejection for a request line
  /// refused by connection-level backpressure (transport in-flight cap),
  /// counting it per lane (streamrel_backpressure_rejects_total). The
  /// line is parsed only to echo its id/verb/lane; a line that does not
  /// even parse gets its parse error instead.
  WireResponse reject_overloaded(std::string_view line);

  /// Builds the structured `parse_error` for a request line longer than
  /// kMaxWireLineBytes, which the transports refuse without buffering
  /// it whole; counted like any other line that does not parse.
  WireResponse reject_oversized_line();

 private:
  using Clock = RequestScheduler::Clock;

  WireResponse reject_unparsed(const WireParseError& error);
  /// Runs one admitted request. `queue_ms` < 0 means it ran inline;
  /// a queued request whose deadline has passed at pickup is shed.
  WireResponse execute_impl(const WireRequest& request,
                            const RequestHooks& hooks,
                            Clock::time_point deadline,
                            double queue_ms = -1.0);
  WireResponse do_register(const WireRequest& request);
  WireResponse do_solve(const WireRequest& request, const RequestHooks& hooks,
                        Clock::time_point deadline, RequestRecord* record);
  WireResponse do_batch(const WireRequest& request, const RequestHooks& hooks,
                        Clock::time_point deadline);
  WireResponse do_replay(const WireRequest& request,
                         Clock::time_point deadline);
  WireResponse do_apply_delta(const WireRequest& request);
  WireResponse do_metrics(const WireRequest& request);
  WireResponse do_dump(const WireRequest& request);
  WireResponse do_persist(const WireRequest& request);
  WireResponse do_restore(const WireRequest& request);
  std::shared_ptr<TenantSession> find_session(const WireRequest& request,
                                              WireResponse* error) const;
  /// The request's absolute deadline when admitted at `admitted`: the
  /// tighter of its deadline_ms and its lane's budget (kNoDeadline when
  /// neither is set).
  Clock::time_point deadline_from(const WireRequest& request,
                                  Clock::time_point admitted) const noexcept;

  /// Folds one solve's telemetry counters into engine-labeled series
  /// (the telemetry -> metrics bridge: no double bookkeeping in the
  /// engines themselves).
  void bridge_solve_telemetry(std::string_view engine,
                              const Telemetry& telemetry);
  /// A record for `request`, numbered in arrival order.
  RequestRecord start_record(const WireRequest& request);
  /// Records one finished request everywhere it is counted: the error
  /// total, the request metrics, the JSON request log and the flight
  /// recorder. `queue_ms` < 0: the request never waited in the queue.
  /// `parsed` false labels the metrics' verb "?" (the raw verb of a
  /// line that never parsed would mint a series per typo).
  void finish(RequestRecord record, double queue_ms = -1.0,
              const TraceCapture* capture = nullptr, bool parsed = true);
  /// Sets the scrape-time gauges (lanes, sessions, caches) from the
  /// scheduler and registry snapshots.
  void refresh_scrape_gauges();

  ServiceOptions options_;
  SessionRegistry registry_;
  BootRestoreReport boot_restore_;
  std::unique_ptr<RequestScheduler> scheduler_;  ///< null without workers
  MetricsRegistry metrics_;
  FlightRecorder flight_;
  RequestLogger logger_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> errors_total_{0};
  /// streamrel_sheds_total per lane, incremented where the shed happens.
  MetricCounter* sheds_[2] = {};
  std::atomic<std::uint64_t> request_seq_{0};
};

}  // namespace streamrel
