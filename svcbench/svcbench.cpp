// svcbench — closed-loop service benchmark for the reliability daemon.
//
// Drives ReliabilityService::handle_line in-process (the entry point
// both the TCP and the --stdio transports call) from ONE generator
// thread that keeps a fixed number of requests outstanding, and reports
// what a client sees end to end. With --trace-dir it also runs a traced
// phase and writes the span chunks that svcbench/run.py folds into
// per-layer self times with tools/trace_report. svcbench/README.md
// describes the workloads, the metric -> layer map and the steadiness
// controls.
//
//   svcbench --workload=whatif_mix|cold_onboard|churn_durable --seed=N
//            --seconds=S --work-dir=DIR [--trace-dir=DIR]
//
// Diagnostic lines go to stdout first; the LAST stdout line is one JSON
// object. Exit status: 0 ok, 1 a wrong answer or a failed workload
// validity check (the JSON then says "correct": false), 2 bad usage,
// 3 an unexpected error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "streamrel/streamrel.hpp"
#include "streamrel/util/cli.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/table.hpp"

using namespace streamrel;

namespace {

using Clock = std::chrono::steady_clock;

// --- instance shape and load shape -------------------------------------
// Two clusters of 16 links each (a 9-node spanning tree plus 8 extra
// links), k = 2 crossing links, demand d = 2. A cold solve is dominated
// by the partition search and the two 2^16-configuration side sweeps, a
// warm solve by the accumulation. Crossing capacities stay in [2, 3], so
// every network has the same three assignments and a warm solve costs
// the same on every tenant, before and after a crossing edit.
constexpr int kClusterNodes = 9;
constexpr int kClusterExtraLinks = 8;
constexpr int kCrossingLinks = 2;
constexpr CapacityRange kCrossingCaps{2, 3};
constexpr Capacity kRate = 2;

/// Warm tenants, or onboarding slots. Tenants' networks differ in cost
/// (the partition search may pick a cut with 3 to 17 assignments), so a
/// run averages over many of them.
constexpr int kTenants = 16;
/// Bulk tenants the batches rotate over, for the same reason: with one
/// batch outstanding, a few bulk networks would let one seed's cut
/// sizes set batch_qps.
constexpr int kBulkTenants = 16;
constexpr int kOverridesPerSolve = 3;
constexpr int kBatchQueries = 16;  ///< what-if queries per bulk batch
constexpr int kScrapeEvery = 256;  ///< foreground ops between scrapes
/// Onboardings between stats polls checking that no slot session ever
/// hit its cache: each poll sees the kTenants live slots, so about half
/// of all onboarded sessions get checked.
constexpr int kSlotCheckEvery = 2 * kTenants;
constexpr int kSetupReps = 3;      ///< timed set-ups per run (median)
constexpr int kWindows = 10;       ///< measured phase split for medians
constexpr double kWarmupSeconds = 2.0;
constexpr std::size_t kSamples = 24;      ///< checked foreground answers
constexpr std::size_t kBatchSamples = 8;  ///< checked batch answers
/// Foreground ops per trace chunk. The generator drains and exports the
/// tracer between chunks, so no per-thread ring (Tracer::kRingCapacity
/// events) can overflow; a cold solve records under 200 spans.
constexpr int kTraceChunkOps = 48;
/// Churn event cycle, shuffled per cycle: probability edits, capacity
/// edits inside side S / side T / on the crossing, one peer replacement
/// (the churn peer leaves and a new one joins, in one delta, so the side
/// keeps its 16 links). Fixed proportions keep p50 inside the
/// probability-edit mode and p90 inside the single-side mode for every
/// seed.
constexpr int kCycleProb = 32;
constexpr int kCycleSideS = 3;
constexpr int kCycleSideT = 3;
constexpr int kCycleCrossing = 1;
constexpr int kCycleTopology = 1;

enum class Workload { kWhatifMix, kColdOnboard, kChurnDurable };

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "whatif_mix") return Workload::kWhatifMix;
  if (name == "cold_onboard") return Workload::kColdOnboard;
  if (name == "churn_durable") return Workload::kChurnDurable;
  return std::nullopt;
}

/// SplitMix64 finalizer over (a, b): independent seeds per input stream.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- generated inputs ----------------------------------------------------

struct Instance {
  FlowNetwork net;
  FlowDemand demand;
  std::vector<bool> side_s;  ///< planted partition, by node
  std::string text;          ///< .net text for register_network
};

/// Two links from a new node to distinct sink-side non-demand nodes of
/// the base clusters.
void join_peer(const Instance& inst, NetworkDelta& delta, NodeId peer,
               Xoshiro256& rng) {
  std::vector<NodeId> anchors;
  for (NodeId n = 0; n < 2 * kClusterNodes; ++n) {
    if (!inst.side_s[static_cast<std::size_t>(n)] && n != inst.demand.sink) {
      anchors.push_back(n);
    }
  }
  const std::size_t a = rng.uniform_below(anchors.size());
  std::size_t b = rng.uniform_below(anchors.size() - 1);
  if (b >= a) ++b;
  for (const std::size_t i : {a, b}) {
    delta.add_edge(peer, anchors[i],
                   static_cast<Capacity>(1 + rng.uniform_below(3)),
                   0.05 + 0.15 * rng.uniform01());
  }
}

/// The shared instance shape. With `churn_peer` the sink side trades two
/// extra links for a peer node attached by two links (the last node and
/// the last two edges), the node the churn workload replaces.
Instance make_instance(std::uint64_t seed, bool churn_peer = false) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = kClusterNodes;
  params.nodes_t = kClusterNodes;
  params.extra_edges_s = kClusterExtraLinks;
  params.extra_edges_t = kClusterExtraLinks - (churn_peer ? 2 : 0);
  params.bottleneck_links = kCrossingLinks;
  params.bottleneck_caps = kCrossingCaps;
  GeneratedNetwork g = clustered_bottleneck(rng, params);
  Instance inst;
  inst.demand = FlowDemand{g.source, g.sink, kRate};
  inst.side_s = std::move(g.side_s);
  inst.net = std::move(g.net);
  if (churn_peer) {
    NetworkDelta delta;
    join_peer(inst, delta, delta.add_node(inst.net.num_nodes()), rng);
    inst.net = apply_delta(inst.net, delta).net;
    inst.side_s.push_back(false);
  }
  inst.text = network_to_string(inst.net);
  return inst;
}

std::string register_line(const std::string& tenant, const Instance& inst,
                          std::uint64_t id) {
  WireRequest req;
  req.id_json = std::to_string(id);
  req.verb = WireVerb::kRegisterNetwork;
  req.tenant = tenant;
  req.network_text = inst.text;
  req.query.source = inst.demand.source;
  req.query.sink = inst.demand.sink;
  req.query.rate = inst.demand.rate;
  return serialize_wire_request(req);
}

std::string solve_line(const std::string& tenant,
                       std::vector<ProbOverride> overrides, std::uint64_t id) {
  WireRequest req;
  req.id_json = std::to_string(id);
  req.verb = WireVerb::kSolve;
  req.tenant = tenant;
  req.max_threads = 1;  // the worker pool is the only parallelism
  req.query.overrides = std::move(overrides);
  return serialize_wire_request(req);
}

std::string verb_line(WireVerb verb, const std::string& tenant,
                      std::uint64_t id) {
  WireRequest req;
  req.id_json = std::to_string(id);
  req.verb = verb;
  req.tenant = tenant;
  return serialize_wire_request(req);
}

/// `count` overrides on distinct edges.
std::vector<ProbOverride> random_overrides(Xoshiro256& rng, int edges,
                                           int count) {
  std::vector<ProbOverride> out;
  while (static_cast<int>(out.size()) < count) {
    const auto e = static_cast<EdgeId>(
        rng.uniform_below(static_cast<std::uint64_t>(edges)));
    const bool seen = std::any_of(out.begin(), out.end(),
                                  [e](const ProbOverride& o) { return o.edge == e; });
    if (!seen) out.push_back(ProbOverride{e, 0.02 + 0.3 * rng.uniform01()});
  }
  return out;
}

// --- wire replies ----------------------------------------------------------

/// ok:true, not shed, and every reliability in it answered exactly. This
/// runs on every reply on the generator thread, so it scans the rendered
/// line instead of parsing it.
bool reply_good(const std::string& line) {
  const std::string_view ok = "\"ok\": ";
  const std::size_t at = line.find(ok);
  if (at == std::string::npos || line.compare(at + ok.size(), 4, "true") != 0) {
    return false;
  }
  if (line.find("\"shed\": true") != std::string::npos) return false;
  const std::string_view status = "\"status\": \"";
  for (std::size_t pos = line.find(status); pos != std::string::npos;
       pos = line.find(status, pos)) {
    pos += status.size();
    if (line.compare(pos, 6, "exact\"") != 0) return false;
  }
  return true;
}

/// The "result" object of an ok reply, or nothing for an error reply.
std::optional<JsonValue> ok_result(const std::string& line) {
  JsonValue doc = parse_json(line);
  const JsonValue* ok = doc.find("ok");
  const JsonValue* result = doc.find("result");
  if (!ok || !ok->as_bool() || !result) return std::nullopt;
  return *result;
}

/// The "result" object of an ok reply; throws on an error reply.
JsonValue reply_result(const std::string& line) {
  std::optional<JsonValue> result = ok_result(line);
  if (!result) throw std::runtime_error("request failed: " + line.substr(0, 300));
  return std::move(*result);
}

/// A solve result's reliability at the wire's %.10g rendering.
std::string wire_reliability(const JsonValue& result) {
  return format_double(result.find("reliability")->as_number(), 10);
}

struct Reply {
  std::uint64_t tag = 0;
  std::string line;
  Clock::time_point done;
};

/// Completion inbox of the generator thread: workers push, it pops.
class ReplyQueue {
 public:
  void push(Reply reply) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      replies_.push_back(std::move(reply));
    }
    cv_.notify_one();
  }
  Reply pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !replies_.empty(); });
    Reply reply = std::move(replies_.front());
    replies_.pop_front();
    return reply;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Reply> replies_;
};

/// One request, waited for, inside a benchmark span. Inline verbs answer
/// before handle_line returns, scheduled ones on a worker; the state is
/// shared with the callback so nothing it touches dies before it ends.
std::string call(ReliabilityService& svc, const std::string& line,
                 const char* span_name) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<std::string> reply;
  };
  auto state = std::make_shared<State>();
  const TraceSpan span(span_name, "bench");
  svc.handle_line(line, [state](WireResponse response) {
    std::string text = serialize_wire_response(response);
    const std::lock_guard<std::mutex> lock(state->mu);
    state->reply = std::move(text);
    state->cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] { return state->reply.has_value(); });
  return std::move(*state->reply);
}

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double cpu_ms_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return 1000.0 * static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Fixed CPU loop: million iterations per second of a dependent xorshift
/// chain over ~200 ms. Printed before and after each run so a slow host
/// can be told apart from a slow program.
double spin_rate() {
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t iterations = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 200.0) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iterations += 4096;
    elapsed = ms_between(start, Clock::now());
  }
  if (x == 0) std::cout << '\n';  // keeps the chain observable
  return static_cast<double>(iterations) / elapsed / 1000.0;
}

/// Prometheus exposition -> {"name{labels}": value}.
std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

/// Sum of the series whose key starts with `prefix` and contains `label`.
double series_sum(const std::map<std::string, double>& m,
                  std::string_view prefix, std::string_view label) {
  double total = 0.0;
  for (const auto& [key, value] : m) {
    if (key.compare(0, prefix.size(), prefix) == 0 &&
        key.find(label) != std::string::npos) {
      total += value;
    }
  }
  return total;
}

// --- correctness samples -----------------------------------------------------

/// One answer the service gave, with everything needed to recompute it
/// cold on the benchmark's own copy of the network.
struct Sample {
  std::string what;
  FlowNetwork net;
  FlowDemand demand;
  std::vector<ProbOverride> overrides;
  std::string wire_value;  ///< "reliability" as the wire rendered it
};

/// Seeded reservoir: a uniform sample of the run's answers whatever the
/// run length. wants() decides for the next offered answer; the caller
/// then passes the completed sample to take().
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}
  std::optional<std::size_t> wants() {
    ++seen_;
    if (filled_ < capacity_) return filled_++;
    const std::uint64_t j = rng_.uniform_below(seen_);
    if (j >= capacity_) return std::nullopt;
    return static_cast<std::size_t>(j);
  }
  void take(std::size_t slot, Sample s) {
    if (items_.size() <= slot) items_.resize(slot + 1);
    items_[slot] = std::move(s);
  }
  const std::vector<Sample>& items() const { return items_; }

 private:
  std::size_t capacity_;
  Xoshiro256 rng_;
  std::uint64_t seen_ = 0;
  std::size_t filled_ = 0;
  std::vector<Sample> items_;
};

/// Cold compute_reliability on the sample's own network: the wire value
/// must match byte for byte at the wire's %.10g rendering.
bool check_sample(const Sample& s) {
  if (s.wire_value.empty()) return true;  // reservoir slot never answered
  FlowNetwork net = s.net;
  for (const ProbOverride& o : s.overrides) {
    net.set_failure_prob(o.edge, o.failure_prob);
  }
  SolveOptions options;
  options.max_threads = 1;
  const SolveReport cold = compute_reliability(net, s.demand, options);
  const std::string expect = format_double(cold.result.reliability, 10);
  if (!cold.exact() || expect != s.wire_value) {
    std::cout << "MISMATCH " << s.what << ": service " << s.wire_value
              << " cold " << expect << "\n";
    return false;
  }
  return true;
}

// --- one measured phase ------------------------------------------------------

struct PhaseResult {
  double seconds = 0.0;
  std::vector<std::pair<double, double>> ops;  ///< (done s, latency ms)
  /// Batch latencies (ms), by bulk tenant.
  std::vector<std::vector<double>> batch_ms =
      std::vector<std::vector<double>>(kBulkTenants);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cpu_ms = 0.0;
  // churn events
  std::uint64_t entries_survived = 0;
  std::uint64_t entries_partial = 0;
  std::uint64_t entries_full = 0;
  std::uint64_t topology_events = 0;
  std::map<std::string, std::vector<double>> event_ms;  ///< by delta class

  /// Median over the kWindows equal time windows of each window's
  /// latency quantile `q`: a few windows slowed by the host move it
  /// less than they move a pooled quantile.
  double window_quantile(double q) const {
    std::vector<std::vector<double>> windows(kWindows);
    for (const auto& [done, latency] : ops) {
      const auto w = static_cast<std::size_t>(done / seconds * kWindows);
      if (w < windows.size()) windows[w].push_back(latency);
    }
    std::vector<double> per_window;
    for (std::vector<double>& w : windows) {
      if (!w.empty()) per_window.push_back(quantile(std::move(w), q));
    }
    return median(std::move(per_window));
  }
  /// Median over the windows of completed ops per second.
  double ops_per_s() const {
    std::vector<double> rates(kWindows, 0.0);
    for (const auto& [done, latency] : ops) {
      const auto w = static_cast<std::size_t>(done / seconds * kWindows);
      if (w < rates.size()) rates[w] += 1.0;
    }
    for (double& r : rates) r /= seconds / kWindows;
    return median(std::move(rates));
  }
  /// What-if queries per second when every bulk tenant answers one
  /// batch at its median latency. Each tenant's latencies have one mode,
  /// so its median is steady, where a median over all batches would
  /// jump between the tenants' cost modes. The median also leaves out
  /// the few batches that wait behind a registration's lock convoy.
  double batch_qps() const {
    double ms = 0.0;
    int tenants = 0;
    for (const std::vector<double>& v : batch_ms) {
      if (v.empty()) continue;
      ms += median(v);
      ++tenants;
    }
    return ms > 0.0 ? kBatchQueries * 1000.0 * tenants / ms : 0.0;
  }
  std::vector<double> batch_latencies() const {
    std::vector<double> all;
    for (const std::vector<double>& v : batch_ms) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  std::vector<double> latencies() const {
    std::vector<double> v;
    v.reserve(ops.size());
    for (const auto& [done, latency] : ops) v.push_back(latency);
    return v;
  }
};

/// Counters read from the stats verb, for before/after diffs.
struct StatsTotals {
  double hits = 0, misses = 0, evictions = 0;
  double checkpoints = 0, bytes = 0, shed = 0, rejected = 0;
  double interactive_queue_p50 = 0, bulk_queue_p50 = 0;
};

// --- the load generator ----------------------------------------------------------------

class LoadGenerator {
 public:
  LoadGenerator(Workload workload, std::uint64_t seed, std::filesystem::path work_dir,
         int workers)
      : workload_(workload),
        seed_(seed),
        work_dir_(std::move(work_dir)),
        workers_(workers),
        rng_(mix_seed(seed, 1)),
        samples_(kSamples, mix_seed(seed, 2)),
        batch_samples_(kBatchSamples, mix_seed(seed, 3)) {
    for (int b = 0; b < kBulkTenants; ++b) {
      bulk_.push_back(make_instance(mix_seed(seed, 300 + static_cast<std::uint64_t>(b))));
    }
    for (int t = 0; t < kTenants; ++t) {
      base_.push_back(make_instance(mix_seed(seed, 100 + static_cast<std::uint64_t>(t)),
                                    workload == Workload::kChurnDurable));
    }
  }
  ~LoadGenerator() {
    svc_.reset();
    std::error_code ec;
    std::filesystem::remove_all(work_dir_, ec);
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// One set-up: a fresh service (a fresh state dir under churn), then
  /// every tenant registered and solved once, serially. Returns seconds.
  double setup();
  /// `chunked` stops issuing every kTraceChunkOps foreground ops until
  /// the loop drains; a non-empty `trace_dir` (which needs `chunked`)
  /// traces the phase and exports a chunk at each drain.
  PhaseResult run_phase(double seconds, bool chunked,
                        const std::filesystem::path& trace_dir);
  /// Correctness: every sampled answer recomputed cold. Under churn also
  /// every tenant's final state, and a second service booted from a copy
  /// of the state dir must answer every tenant byte-identically.
  bool verify();

  StatsTotals stats_totals();
  std::map<std::string, double> scrape();
  double series() const { return series_; }
  /// Checkpoints every tenant through the persist verb (the code path a
  /// WAL compaction runs), timed by its benchmark span.
  void persist_all();
  /// False once a workload-validity check failed during the phases.
  bool valid() const { return valid_; }

 private:
  struct TenantState {
    std::string name;
    Instance inst;  ///< the benchmark's own copy, edited like the service's
    int base_edges = 0;
    Xoshiro256 rng{0};
    bool busy = false;
    std::vector<int> cycle;  ///< remaining churn event kinds
  };
  struct InFlight {
    bool batch = false;
    int tenant = -1;
    Clock::time_point start;
    std::optional<Sample> sample;  ///< completed when the answer arrives
    std::size_t sample_slot = 0;
    std::size_t batch_query = 0;
    std::size_t bulk = 0;  ///< batch: the bulk tenant
    std::string_view event_class;  ///< churn: the delta's class
  };

  ServiceOptions service_options(const std::filesystem::path& state_dir) const {
    ServiceOptions o;
    o.start_workers = true;
    o.scheduler.workers = workers_;
    o.state_dir = state_dir.string();
    return o;
  }
  std::filesystem::path state_dir() const {
    return workload_ == Workload::kChurnDurable ? work_dir_ / "state"
                                                : std::filesystem::path();
  }
  std::uint64_t next_id() { return ++ids_; }
  static std::string bulk_name(std::size_t b) {
    std::string name = "bulk";
    return name.append(std::to_string(b));
  }
  std::string call_verb(WireVerb verb, const std::string& tenant,
                        const char* span) {
    return call(*svc_, verb_line(verb, tenant, next_id()), span);
  }

  void warm(const std::string& name, const Instance& inst);
  void submit(std::uint64_t tag, InFlight op, const std::string& line);
  int pick_idle_tenant();
  void start_batch(bool traced, PhaseResult& phase);
  void start_op(bool traced, PhaseResult& phase);
  void start_whatif(bool traced);
  void start_onboard(bool traced);
  void start_event(bool traced, PhaseResult& phase);
  NetworkDelta next_delta(TenantState& ts);
  void finish(const Reply& reply, InFlight& op, PhaseResult& phase,
              Clock::time_point phase_start, Clock::time_point deadline);
  void check_slots();
  void export_chunk(const std::filesystem::path& trace_dir);

  /// Measurement-only duplicate of the decode handle_line performs,
  /// in its own span (traced phase only, before the op's clock starts).
  static void trace_decode(const std::string& line) {
    const TraceSpan span("api.decode", "bench");
    (void)parse_wire_request(line);
  }

  Workload workload_;
  std::uint64_t seed_;
  std::filesystem::path work_dir_;
  int workers_;
  Xoshiro256 rng_;
  Reservoir samples_;
  Reservoir batch_samples_;
  std::vector<Instance> bulk_;
  std::vector<Instance> base_;
  std::vector<TenantState> tenants_;
  ReplyQueue replies_;  // outlives svc_: workers push into it
  std::unique_ptr<ReliabilityService> svc_;
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t ids_ = 0;
  std::uint64_t onboarded_ = 0;
  std::uint64_t batches_started_ = 0;
  std::uint64_t ops_done_ = 0;
  int rr_ = 0;
  int chunks_ = 0;
  double series_ = 0.0;
  bool valid_ = true;
};

double LoadGenerator::setup() {
  svc_.reset();
  std::filesystem::remove_all(work_dir_);
  std::filesystem::create_directories(work_dir_);
  tenants_.clear();
  const Clock::time_point start = Clock::now();
  svc_ = std::make_unique<ReliabilityService>(service_options(state_dir()));
  for (int t = 0; t < kTenants; ++t) {
    TenantState ts;
    ts.name = (workload_ == Workload::kColdOnboard ? "slot" : "tenant") +
              std::to_string(t);
    ts.inst = base_[static_cast<std::size_t>(t)];
    ts.base_edges = ts.inst.net.num_edges() -
                    (workload_ == Workload::kChurnDurable ? 2 : 0);
    ts.rng = Xoshiro256(mix_seed(seed_, 200 + static_cast<std::uint64_t>(t)));
    warm(ts.name, ts.inst);
    tenants_.push_back(std::move(ts));
  }
  for (int b = 0; b < kBulkTenants; ++b) {
    warm(bulk_name(static_cast<std::size_t>(b)), bulk_[static_cast<std::size_t>(b)]);
  }
  return ms_between(start, Clock::now()) / 1000.0;
}

void LoadGenerator::warm(const std::string& name, const Instance& inst) {
  reply_result(call(*svc_, register_line(name, inst, next_id()), "svc.register"));
  const std::string line = call(*svc_, solve_line(name, {}, next_id()), "svc.solve");
  if (!reply_good(line)) throw std::runtime_error("set-up solve failed: " + line);
}

void LoadGenerator::submit(std::uint64_t tag, InFlight op, const std::string& line) {
  const bool batch = op.batch;
  in_flight_.emplace(tag, std::move(op));
  ReplyQueue* queue = &replies_;
  const TraceSpan span("svc.submit", "bench");
  svc_->handle_line(line, [queue, tag, batch](WireResponse response) {
    std::string text;
    {
      // Encode on the worker, as the transports do before writing.
      const TraceSpan encode(batch ? "api.encode.bulk" : "api.encode", "bench");
      text = serialize_wire_response(response);
    }
    queue->push(Reply{tag, std::move(text), Clock::now()});
  });
}

int LoadGenerator::pick_idle_tenant() {
  for (int i = 0; i < kTenants; ++i) {
    const int t = (rr_ + i) % kTenants;
    if (!tenants_[static_cast<std::size_t>(t)].busy) {
      rr_ = (t + 1) % kTenants;
      return t;
    }
  }
  throw std::logic_error("no idle tenant");
}

void LoadGenerator::start_batch(bool traced, PhaseResult& phase) {
  ++phase.attempted;
  const std::uint64_t tag = next_id();
  const std::size_t b = batches_started_++ % kBulkTenants;
  const Instance& bulk = bulk_[b];
  WireRequest req;
  req.id_json = std::to_string(tag);
  req.verb = WireVerb::kBatch;
  req.tenant = bulk_name(b);
  req.max_threads = 1;
  req.queries.resize(kBatchQueries);
  for (WireQuery& q : req.queries) {
    q.overrides = random_overrides(rng_, bulk.net.num_edges(), kOverridesPerSolve);
  }
  InFlight op;
  op.batch = true;
  op.bulk = b;
  if (const std::optional<std::size_t> slot = batch_samples_.wants()) {
    op.sample_slot = *slot;
    op.batch_query = rng_.uniform_below(kBatchQueries);
    op.sample = Sample{"batch query " + req.tenant, bulk.net, bulk.demand,
                       req.queries[op.batch_query].overrides, {}};
  }
  const std::string line = serialize_wire_request(req);
  if (traced) trace_decode(line);
  op.start = Clock::now();
  submit(tag, std::move(op), line);
}

void LoadGenerator::start_whatif(bool traced) {
  const int t = pick_idle_tenant();
  TenantState& ts = tenants_[static_cast<std::size_t>(t)];
  std::vector<ProbOverride> overrides =
      random_overrides(rng_, ts.inst.net.num_edges(), kOverridesPerSolve);
  InFlight op;
  op.tenant = t;
  ts.busy = true;
  if (const std::optional<std::size_t> slot = samples_.wants()) {
    op.sample_slot = *slot;
    op.sample = Sample{"whatif " + ts.name, ts.inst.net, ts.inst.demand,
                       overrides, {}};
  }
  const std::uint64_t tag = next_id();
  const std::string line = solve_line(ts.name, std::move(overrides), tag);
  if (traced) trace_decode(line);
  op.start = Clock::now();
  submit(tag, std::move(op), line);
}

void LoadGenerator::start_onboard(bool traced) {
  const int t = pick_idle_tenant();
  TenantState& ts = tenants_[static_cast<std::size_t>(t)];
  ts.inst = make_instance(mix_seed(seed_, 1000000 + onboarded_++));
  const std::string reg = register_line(ts.name, ts.inst, next_id());
  const std::uint64_t tag = next_id();
  const std::string solve = solve_line(ts.name, {}, tag);
  if (traced) {
    trace_decode(reg);
    trace_decode(solve);
    NetworkFile file;
    {
      const TraceSpan span("graph.parse", "bench");
      file = read_network_from_string(ts.inst.text);
    }
    const TraceSpan span("graph.compile", "bench");
    (void)file.net.compile();
  }
  InFlight op;
  op.tenant = t;
  if (const std::optional<std::size_t> slot = samples_.wants()) {
    op.sample_slot = *slot;
    op.sample = Sample{"onboard " + std::to_string(onboarded_), ts.inst.net,
                       ts.inst.demand, {}, {}};
  }
  ts.busy = true;
  // The op's clock includes the registration the generator runs inline.
  op.start = Clock::now();
  const std::string reg_reply = call(*svc_, reg, "svc.register");
  if (!ok_result(reg_reply)) {
    std::cout << "register failed: " << reg_reply.substr(0, 300) << "\n";
    valid_ = false;
  }
  submit(tag, std::move(op), solve);
}

NetworkDelta LoadGenerator::next_delta(TenantState& ts) {
  enum Kind { kProb, kSideS, kSideT, kCrossing, kTopology };
  if (ts.cycle.empty()) {
    ts.cycle.insert(ts.cycle.end(), kCycleProb, kProb);
    ts.cycle.insert(ts.cycle.end(), kCycleSideS, kSideS);
    ts.cycle.insert(ts.cycle.end(), kCycleSideT, kSideT);
    ts.cycle.insert(ts.cycle.end(), kCycleCrossing, kCrossing);
    ts.cycle.insert(ts.cycle.end(), kCycleTopology, kTopology);
    for (std::size_t i = ts.cycle.size(); i > 1; --i) {
      std::swap(ts.cycle[i - 1], ts.cycle[ts.rng.uniform_below(i)]);
    }
  }
  const int kind = ts.cycle.back();
  ts.cycle.pop_back();

  // Probability and capacity edits touch base edges only; the churn
  // peer's two links are the last edges and leave with the peer.
  const FlowNetwork& net = ts.inst.net;
  std::vector<EdgeId> side_s, side_t, crossing;
  for (EdgeId e = 0; e < ts.base_edges; ++e) {
    const Edge& edge = net.edge(e);
    const bool us = ts.inst.side_s[static_cast<std::size_t>(edge.u)];
    const bool vs = ts.inst.side_s[static_cast<std::size_t>(edge.v)];
    (us && vs ? side_s : (!us && !vs ? side_t : crossing)).push_back(e);
  }
  NetworkDelta delta;
  if (kind == kProb) {
    const auto edits = 1 + ts.rng.uniform_below(3);
    for (std::uint64_t i = 0; i < edits; ++i) {
      delta.set_failure_prob(
          static_cast<EdgeId>(ts.rng.uniform_below(
              static_cast<std::uint64_t>(ts.base_edges))),
          0.02 + 0.3 * ts.rng.uniform01());
    }
  } else if (kind != kTopology) {
    const std::vector<EdgeId>& from =
        kind == kSideS ? side_s : (kind == kSideT ? side_t : crossing);
    const EdgeId e = from[ts.rng.uniform_below(from.size())];
    const Capacity old = net.edge(e).capacity;
    Capacity c = old;
    if (kind == kCrossing) {
      c = old == kCrossingCaps.lo ? kCrossingCaps.hi : kCrossingCaps.lo;
    }
    while (c == old) c = static_cast<Capacity>(1 + ts.rng.uniform_below(3));
    delta.set_capacity(e, c);
  } else {
    // The churn peer (the last node) leaves and a new one joins the sink
    // side, so the planted cut stays the bottleneck and the new peer
    // takes the old one's node id and edge ids.
    delta.remove_node(net.num_nodes() - 1);
    join_peer(ts.inst, delta, delta.add_node(net.num_nodes()), ts.rng);
  }
  return delta;
}

void LoadGenerator::start_event(bool traced, PhaseResult& phase) {
  const int t = pick_idle_tenant();
  TenantState& ts = tenants_[static_cast<std::size_t>(t)];
  WireRequest req;
  req.id_json = std::to_string(next_id());
  req.verb = WireVerb::kApplyDelta;
  req.tenant = ts.name;
  req.delta = next_delta(ts);
  const std::string delta_line = serialize_wire_request(req);
  const std::uint64_t tag = next_id();
  const std::string solve = solve_line(ts.name, {}, tag);
  if (traced) {
    trace_decode(delta_line);
    trace_decode(solve);
  }

  // The benchmark's own copy takes the same edit through the FlowNetwork
  // path (graph/delta), never through the service.
  ts.inst.net = apply_delta(ts.inst.net, req.delta).net;
  if (req.delta.classify() == DeltaClass::kTopology) ++phase.topology_events;

  InFlight op;
  op.tenant = t;
  op.event_class = to_string(req.delta.classify());
  if (const std::optional<std::size_t> slot = samples_.wants()) {
    op.sample_slot = *slot;
    op.sample = Sample{"churn event " + ts.name, ts.inst.net, ts.inst.demand,
                       {}, {}};
  }
  ts.busy = true;
  // The op's clock includes apply_delta, journal append and any
  // compaction checkpoint, which the generator runs inline.
  op.start = Clock::now();
  const std::string reply = call(*svc_, delta_line, "svc.apply_delta");
  if (const std::optional<JsonValue> result = ok_result(reply)) {
    const auto count = [&](std::string_view key) {
      return static_cast<std::uint64_t>(result->find(key)->as_number());
    };
    phase.entries_survived += count("entries_survived");
    phase.entries_partial += count("entries_partial");
    phase.entries_full += count("entries_full");
  } else {
    std::cout << "apply_delta failed: " << reply.substr(0, 300) << "\n";
    valid_ = false;
  }
  submit(tag, std::move(op), solve);
}

void LoadGenerator::start_op(bool traced, PhaseResult& phase) {
  ++phase.attempted;
  switch (workload_) {
    case Workload::kWhatifMix:
      start_whatif(traced);
      break;
    case Workload::kColdOnboard:
      start_onboard(traced);
      break;
    case Workload::kChurnDurable:
      start_event(traced, phase);
      break;
  }
}

void LoadGenerator::finish(const Reply& reply, InFlight& op, PhaseResult& phase,
                    Clock::time_point phase_start,
                    Clock::time_point deadline) {
  const bool good = reply_good(reply.line);
  if (!good) {
    ++phase.failed;
    std::cout << "failed reply: " << reply.line.substr(0, 300) << "\n";
  }
  if (op.sample && good) {
    if (op.batch) {
      const JsonValue result = reply_result(reply.line);
      op.sample->wire_value =
          wire_reliability(result.find("results")->as_array()[op.batch_query]);
      batch_samples_.take(op.sample_slot, std::move(*op.sample));
    } else {
      op.sample->wire_value = wire_reliability(reply_result(reply.line));
      samples_.take(op.sample_slot, std::move(*op.sample));
    }
  }
  if (op.tenant >= 0) tenants_[static_cast<std::size_t>(op.tenant)].busy = false;
  if (reply.done > deadline) return;  // drained after the phase ended
  const double latency = ms_between(op.start, reply.done);
  if (op.batch) {
    phase.batch_ms[op.bulk].push_back(latency);
  } else {
    phase.ops.emplace_back(ms_between(phase_start, reply.done) / 1000.0, latency);
    if (!op.event_class.empty()) {
      phase.event_ms[std::string(op.event_class)].push_back(latency);
    }
  }
}

void LoadGenerator::check_slots() {
  // Onboarding slots never hit: each session answers exactly one solve
  // before its slot is re-registered with a never-seen network.
  const JsonValue stats =
      reply_result(call_verb(WireVerb::kStats, "default", "svc.stats"));
  for (const auto& [name, t] : stats.find("tenants")->as_object()) {
    if (name.rfind("slot", 0) == 0 && t.find("cache_hits")->as_number() != 0.0) {
      std::cout << "VALIDITY cold_onboard: " << name << " had cache hits\n";
      valid_ = false;
    }
  }
}

void LoadGenerator::export_chunk(const std::filesystem::path& trace_dir) {
  // Called only while nothing is in flight: export and clear are the
  // tracer's coordination points and must not race a solve.
  if (Tracer::dropped_count() != 0) {
    std::cout << "VALIDITY trace dropped " << Tracer::dropped_count()
              << " events\n";
    valid_ = false;
  }
  char name[32];
  std::snprintf(name, sizeof(name), "chunk-%04d.json", chunks_++);
  if (!Tracer::export_chrome_json_to_file((trace_dir / name).string())) {
    throw std::runtime_error("cannot write trace chunk");
  }
  Tracer::clear();
}

PhaseResult LoadGenerator::run_phase(double seconds, bool chunked,
                                     const std::filesystem::path& trace_dir) {
  const bool traced = !trace_dir.empty();
  PhaseResult phase;
  phase.seconds = seconds;
  // Closed loop: workers - 1 foreground requests plus one bulk batch
  // outstanding, so at most `workers` requests are ever in flight.
  const int foreground = std::max(1, workers_ - 1);
  const double cpu_start = cpu_ms_now();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  if (traced) {
    Tracer::clear();
    Tracer::set_enabled(true);
  }
  int chunk_ops = 0;
  const auto issue_all = [&] {
    for (int i = 0; i < foreground; ++i) start_op(traced, phase);
    start_batch(traced, phase);
  };
  issue_all();
  for (;;) {
    if (in_flight_.empty()) {
      if (traced) export_chunk(trace_dir);
      if (Clock::now() >= deadline) break;
      chunk_ops = 0;
      issue_all();
      continue;
    }
    const Reply reply = replies_.pop();
    const auto it = in_flight_.find(reply.tag);
    InFlight op = std::move(it->second);
    in_flight_.erase(it);
    finish(reply, op, phase, start, deadline);
    if (!op.batch) {
      ++ops_done_;
      if (ops_done_ % kScrapeEvery == 0) scrape();
      if (workload_ == Workload::kColdOnboard &&
          ops_done_ % kSlotCheckEvery == 0) {
        check_slots();
      }
      if (chunked) ++chunk_ops;
    }
    // A full chunk stops issuing until the loop drains.
    if (Clock::now() >= deadline || chunk_ops >= kTraceChunkOps) continue;
    if (op.batch) {
      start_batch(traced, phase);
    } else {
      start_op(traced, phase);
    }
  }
  if (traced) Tracer::set_enabled(false);
  phase.cpu_ms = cpu_ms_now() - cpu_start;
  return phase;
}

StatsTotals LoadGenerator::stats_totals() {
  const JsonValue stats =
      reply_result(call_verb(WireVerb::kStats, "default", "svc.stats"));
  StatsTotals c;
  for (const auto& [name, t] : stats.find("tenants")->as_object()) {
    c.hits += t.find("cache_hits")->as_number();
    c.misses += t.find("cache_misses")->as_number();
    c.evictions += t.find("cache_evictions")->as_number();
  }
  const JsonValue* persist = stats.find("persist");
  c.checkpoints = persist->find("checkpoints")->as_number();
  c.bytes = persist->find("bytes_written")->as_number();
  c.shed = stats.find("shed")->as_number();
  const JsonValue* interactive = stats.find("lanes")->find("interactive");
  const JsonValue* bulk = stats.find("lanes")->find("bulk");
  c.rejected = interactive->find("rejected")->as_number() +
               bulk->find("rejected")->as_number();
  c.interactive_queue_p50 = interactive->find("queue_p50_ms")->as_number();
  c.bulk_queue_p50 = bulk->find("queue_p50_ms")->as_number();
  return c;
}

std::map<std::string, double> LoadGenerator::scrape() {
  const JsonValue result =
      reply_result(call_verb(WireVerb::kMetrics, "default", "obs.scrape"));
  series_ = result.find("series")->as_number();
  return parse_exposition(result.find("text")->as_string());
}

void LoadGenerator::persist_all() {
  for (const TenantState& ts : tenants_) {
    reply_result(call_verb(WireVerb::kPersist, ts.name, "svc.persist"));
  }
}

bool LoadGenerator::verify() {
  bool ok = true;
  std::size_t checked = 0;
  for (const Reservoir* r : {&samples_, &batch_samples_}) {
    for (const Sample& s : r->items()) {
      ok = check_sample(s) && ok;
      ++checked;
    }
  }
  if (workload_ != Workload::kChurnDurable) {
    std::cout << "correctness: " << checked
              << " sampled answers recomputed cold, "
              << (ok ? "all equal" : "MISMATCH") << "\n";
    return ok;
  }
  // Live answers, then the same questions to a service booted from a
  // copy of the state dir (snapshot plus WAL tail replay).
  std::vector<std::string> live;
  for (const TenantState& ts : tenants_) {
    live.push_back(wire_reliability(reply_result(
        call(*svc_, solve_line(ts.name, {}, next_id()), "svc.solve"))));
    ok = check_sample(Sample{"final state " + ts.name, ts.inst.net,
                             ts.inst.demand, {}, live.back()}) &&
         ok;
    ++checked;
  }
  const std::filesystem::path copy = work_dir_ / "state-copy";
  std::filesystem::copy(state_dir(), copy,
                        std::filesystem::copy_options::recursive);
  ReliabilityService second(service_options(copy));
  const std::size_t restored = second.boot_restore().restored;
  if (restored != tenants_.size() + kBulkTenants ||
      second.boot_restore().corrupt != 0) {
    std::cout << "MISMATCH restart restored " << restored << " sessions\n";
    ok = false;
  }
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const std::string got = wire_reliability(reply_result(
        call(second, solve_line(tenants_[i].name, {}, next_id()), "svc.solve")));
    if (got != live[i]) {
      std::cout << "MISMATCH restart " << tenants_[i].name << ": live "
                << live[i] << " restored " << got << "\n";
      ok = false;
    }
  }
  std::cout << "correctness: " << checked
            << " answers recomputed cold, restart restored " << restored
            << " sessions, " << (ok ? "all equal" : "MISMATCH") << "\n";
  return ok;
}

int run(const CliArgs& args) {
  const std::optional<Workload> workload =
      parse_workload(args.get("workload", ""));
  const double seconds = args.get_double("seconds", 0.0);
  const std::filesystem::path work_dir = args.get("work-dir", "");
  if (!workload || seconds <= 0.0 || work_dir.empty()) {
    std::cerr << "usage: svcbench --workload=whatif_mix|cold_onboard|"
                 "churn_durable --seed=N --seconds=S --work-dir=DIR "
                 "[--trace-dir=DIR]\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::filesystem::path trace_dir = args.get("trace-dir", "");
  const bool trace = !trace_dir.empty();
  const int workers =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()) - 1);

  const double spin_before = spin_rate();
  LoadGenerator generator(*workload, seed, work_dir, workers);
  generator.setup();  // untimed: first-touch allocation and page faults
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) setups.push_back(generator.setup());
  generator.run_phase(kWarmupSeconds, false, {});  // untimed warm-up

  // Timed mode measures `seconds`; traced mode splits them into an
  // untraced half (for trace.overhead_pct) and a traced half. Both halves
  // of a traced run drain every kTraceChunkOps ops, so the overhead
  // compares the same load shape with and without tracing.
  const StatsTotals s0 = generator.stats_totals();
  const PhaseResult plain =
      generator.run_phase(trace ? seconds / 2 : seconds, trace, {});
  const StatsTotals s1 = generator.stats_totals();
  const std::map<std::string, double> m1 = generator.scrape();
  PhaseResult traced;
  if (trace) traced = generator.run_phase(seconds / 2, true, trace_dir);
  const StatsTotals s2 = generator.stats_totals();
  const std::map<std::string, double> m2 = generator.scrape();
  // Read before persist_all() and verify(), which boots a second service.
  const double peak_rss = peak_rss_mb();
  if (trace && *workload == Workload::kChurnDurable) {
    Tracer::clear();
    Tracer::set_enabled(true);
    generator.persist_all();
    Tracer::set_enabled(false);
    Tracer::export_chrome_json_to_file((trace_dir / "persist.json").string());
    Tracer::clear();
  }

  // Workload validity, over every measured phase.
  bool valid = generator.valid();
  const double hits = s2.hits - s0.hits;
  const double misses = s2.misses - s0.misses;
  const PhaseResult& last = trace ? traced : plain;
  const double entries = static_cast<double>(
      last.entries_survived + last.entries_partial + last.entries_full);
  switch (*workload) {
    case Workload::kWhatifMix: {
      const double evictions = s2.evictions - s0.evictions;
      std::cout << "validity whatif_mix: cache hit ratio "
                << format_double(hits / std::max(1.0, hits + misses), 6)
                << " over " << hits + misses << " lookups, " << evictions
                << " evictions\n";
      valid = valid && misses == 0.0 && hits > 0.0 && evictions == 0.0;
      break;
    }
    case Workload::kColdOnboard:
      std::cout << "validity cold_onboard: slot sessions polled every "
                << kSlotCheckEvery << " onboardings, no cache hit seen\n";
      break;
    case Workload::kChurnDurable: {
      const double checkpoints = s2.checkpoints - s0.checkpoints;
      std::cout << "validity churn_durable: " << checkpoints
                << " compaction checkpoints, entry survival "
                << format_double(static_cast<double>(last.entries_survived) /
                                     std::max(1.0, entries), 4)
                << ", salvaged sides " << last.entries_partial
                << ", topology events " << last.topology_events << "\n";
      valid = valid && checkpoints >= 1.0 && last.entries_partial > 0 &&
              last.entries_survived > 0 && last.topology_events > 0;
      break;
    }
  }
  const bool correct = generator.verify() && valid;
  const double spin_after = spin_rate();

  const std::vector<double> lat = plain.latencies();
  const double p99 = quantile(lat, 0.99);
  std::cout << "op_p99_ms " << format_double(p99, 6) << " over " << lat.size()
            << " ops (diagnostic, not gated)\nop latency deciles ms:";
  for (int d = 1; d < 10; ++d) {
    std::cout << ' ' << format_double(quantile(lat, d / 10.0), 4);
  }
  std::cout << "\n";
  const std::vector<double> batch_lat = plain.batch_latencies();
  std::cout << "batch latency deciles ms over " << batch_lat.size()
            << " batches:";
  for (int d = 1; d < 10; ++d) {
    std::cout << ' ' << format_double(quantile(batch_lat, d / 10.0), 4);
  }
  std::cout << " max " << format_double(quantile(batch_lat, 1.0), 4) << "\n";
  for (const auto& [cls, ms] : plain.event_ms) {
    std::cout << "churn " << cls << " events: " << ms.size() << ", p50 "
              << format_double(quantile(ms, 0.5), 4) << " ms, p90 "
              << format_double(quantile(ms, 0.9), 4) << " ms\n";
  }
  std::cout << "host.spin_rate before " << format_double(spin_before, 6)
            << " after " << format_double(spin_after, 6) << " Mit/s\n";

  const std::uint64_t attempted = plain.attempted + traced.attempted;
  const std::uint64_t failed = plain.failed + traced.failed;
  const auto add = [](std::string& object, std::string_view key, double value) {
    append_json_member(object, key, format_double(value, 17));
  };
  std::string e2e = "{}";
  add(e2e, "setup_s", median(setups));
  add(e2e, "op_p50_ms", plain.window_quantile(0.5));
  add(e2e, "op_p90_ms", plain.window_quantile(0.9));
  add(e2e, "ops_per_s", plain.ops_per_s());
  add(e2e, "ok_rate", plain.attempted == 0
                          ? 0.0
                          : static_cast<double>(plain.attempted - plain.failed) /
                                static_cast<double>(plain.attempted));
  add(e2e, "peak_rss_mb", peak_rss);
  add(e2e, "batch_qps", plain.batch_qps());

  // Counters for the traced phase's per-layer numbers (run.py adds the
  // span-derived ones). Diffs are taken across the traced phase only.
  std::string layer = "{}";
  if (trace) {
    const auto delta = [&](std::string_view prefix, std::string_view label) {
      return series_sum(m2, prefix, label) - series_sum(m1, prefix, label);
    };
    const double ops = std::max(1.0, static_cast<double>(traced.ops.size()));
    const double wordwise =
        delta("streamrel_engine_work_total{", "counter=\"lanes_decided_wordwise\"");
    const double residue =
        delta("streamrel_engine_work_total{", "counter=\"scalar_residue\"");
    const double trace_entries = static_cast<double>(
        traced.entries_survived + traced.entries_partial + traced.entries_full);
    add(layer, "server.interactive_queue_ms", s2.interactive_queue_p50);
    add(layer, "server.bulk_queue_ms", s2.bulk_queue_p50);
    add(layer, "server.shed", s2.shed - s1.shed);
    add(layer, "server.rejected", s2.rejected - s1.rejected);
    add(layer, "maxflow.calls_per_op",
        delta("streamrel_engine_work_total{", "counter=\"maxflow_calls\"") / ops);
    add(layer, "maxflow.residue_per_op", residue / ops);
    add(layer, "core.lanes_wordwise_ratio",
        wordwise + residue > 0 ? wordwise / (wordwise + residue) : 0.0);
    add(layer, "core.invalidation_survival",
        trace_entries > 0
            ? static_cast<double>(traced.entries_survived) / trace_entries
            : 0.0);
    add(layer, "core.salvaged_sides", static_cast<double>(traced.entries_partial));
    add(layer, "persist.bytes_per_event",
        *workload == Workload::kChurnDurable ? (s2.bytes - s1.bytes) / ops : 0.0);
    add(layer, "obs.series", generator.series());
    add(layer, "proc.cpu_ms_per_op",
        plain.cpu_ms / std::max(1.0, static_cast<double>(plain.ops.size())));
    add(layer, "trace.overhead_pct",
        100.0 * (traced.window_quantile(0.5) / plain.window_quantile(0.5) - 1.0));
    add(layer, "exec_solve_ms",
        delta("streamrel_request_latency_ms_sum{", "verb=\"solve\""));
    add(layer, "exec_solve_count",
        delta("streamrel_request_latency_ms_count{", "verb=\"solve\""));
    add(layer, "traced_ops", static_cast<double>(traced.ops.size()));
    add(layer, "traced_batches", static_cast<double>(traced.batch_latencies().size()));
  }

  std::string out = "{}";
  append_json_member(out, "correct", correct ? "true" : "false");
  append_json_member(out, "attempted", std::to_string(attempted));
  append_json_member(out, "failed", std::to_string(failed));
  append_json_member(out, "end_to_end", e2e);
  append_json_member(out, "layer_counters", layer);
  std::cout << out << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(CliArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "svcbench: " << e.what() << "\n";
    return 3;
  }
}
