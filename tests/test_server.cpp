// The daemon stack end to end, in process: service verbs over registered
// tenants, stream framing, shedding under a saturated scheduler, and the
// concurrent-tenant isolation the threading hardening promises. The TCP
// transport gets one loopback smoke (skipped if sockets are unavailable).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "streamrel/api/wire.hpp"
#include "streamrel/core/batch_evaluator.hpp"
#include "streamrel/core/bottleneck_algorithm.hpp"
#include "streamrel/core/query_session.hpp"
#include "streamrel/graph/generators.hpp"
#include "streamrel/graph/io.hpp"
#include "streamrel/persist/store.hpp"
#include "streamrel/server/service.hpp"
#include "streamrel/server/session_registry.hpp"
#include "streamrel/server/transport.hpp"
#include "streamrel/util/json.hpp"
#include "streamrel/util/prng.hpp"
#include "streamrel/util/trace.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace streamrel {
namespace {

/// Minimal blocking loopback client: connects, writes `script`, shuts
/// down the write side, and reads until `expected` newline-terminated
/// replies (or EOF). Returns the reply lines.
std::vector<std::string> tcp_client_exchange(const char* host,
                                             std::uint16_t port,
                                             const std::string& script,
                                             std::size_t expected) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Network byte order by hand; the htons macro trips -Wold-style-cast.
  unsigned char* port_bytes = reinterpret_cast<unsigned char*>(&addr.sin_port);
  port_bytes[0] = static_cast<unsigned char>(port >> 8);
  port_bytes[1] = static_cast<unsigned char>(port & 0xFF);
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < script.size()) {
    const ssize_t n =
        ::send(fd, script.data() + sent, script.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string buffer;
  std::vector<std::string> lines;
  char chunk[4096];
  while (lines.size() < expected) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    for (std::size_t nl = buffer.find('\n', pos); nl != std::string::npos;
         nl = buffer.find('\n', pos)) {
      lines.push_back(buffer.substr(pos, nl - pos));
      pos = nl + 1;
    }
    buffer.erase(0, pos);
  }
  ::close(fd);
  return lines;
}

GeneratedNetwork test_instance(std::uint64_t seed = 5) {
  Xoshiro256 rng(seed);
  ClusteredParams params;
  params.nodes_s = 5;
  params.extra_edges_s = 3;
  params.nodes_t = 4;
  params.extra_edges_t = 2;
  params.bottleneck_links = 2;
  params.bottleneck_caps = {1, 3};
  return clustered_bottleneck(rng, params);
}

WireRequest register_request(const GeneratedNetwork& g,
                             const std::string& tenant = "default",
                             const std::string& network_id = "default") {
  WireRequest reg;
  reg.verb = WireVerb::kRegisterNetwork;
  reg.tenant = tenant;
  reg.network_id = network_id;
  reg.network_text = network_to_string(g.net);
  reg.query.source = g.source;
  reg.query.sink = g.sink;
  reg.query.rate = 2;
  return reg;
}

WireRequest batch_request(const std::string& tenant = "default") {
  WireRequest req;
  req.verb = WireVerb::kBatch;
  req.lane = WireLane::kBulk;
  req.tenant = tenant;
  req.queries.resize(3);
  req.queries[1].rate = 1;
  req.queries[2].overrides.push_back(ProbOverride{0, 0.5});
  return req;
}

TEST(Server, WarmBatchIsBitwiseEqualToColdAndToInProcess) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  const WireResponse cold = service.execute(batch_request());
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.legacy_lines.size(), 3u);

  const WireResponse warm = service.execute(batch_request());
  ASSERT_TRUE(warm.ok);
  // Warm answers reuse the cold arithmetic: identical rendered lines.
  EXPECT_EQ(warm.legacy_lines, cold.legacy_lines);

  // And both match a fresh in-process QuerySession + BatchEvaluator.
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(g.net);
  BatchEvaluator evaluator(session);
  std::vector<WhatIfQuery> queries(3);
  for (WhatIfQuery& q : queries) q.demand = demand;
  queries[1].demand.rate = 1;
  queries[2].prob_overrides.push_back(ProbOverride{0, 0.5});
  const BatchReport batch = evaluator.evaluate(queries, {});
  ASSERT_EQ(batch.reports.size(), 3u);
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    EXPECT_EQ(cold.legacy_lines[i],
              render_batch_query_line(i, queries[i].demand, batch.reports[i]));
  }
}

TEST(Server, DeltaInvalidatesAndWarmMatchesColdOnTheMutatedNetwork) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  const WireResponse before = service.execute(batch_request());
  ASSERT_TRUE(before.ok);

  WireRequest delta;
  delta.verb = WireVerb::kApplyDelta;
  delta.delta.set_failure_prob(0, 0.9);
  const WireResponse applied = service.execute(delta);
  ASSERT_TRUE(applied.ok);
  EXPECT_NE(applied.result_json.find("\"class\""), std::string::npos);

  const WireResponse warm = service.execute(batch_request());
  ASSERT_TRUE(warm.ok);
  EXPECT_NE(warm.legacy_lines, before.legacy_lines);

  // Cold reference on the mutated network.
  FlowNetwork mutated = g.net;
  mutated.set_failure_prob(0, 0.9);
  const FlowDemand demand{g.source, g.sink, 2};
  QuerySession session(mutated);
  BatchEvaluator evaluator(session);
  std::vector<WhatIfQuery> queries(3);
  for (WhatIfQuery& q : queries) q.demand = demand;
  queries[1].demand.rate = 1;
  queries[2].prob_overrides.push_back(ProbOverride{0, 0.5});
  const BatchReport batch = evaluator.evaluate(queries, {});
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    EXPECT_EQ(warm.legacy_lines[i],
              render_batch_query_line(i, queries[i].demand, batch.reports[i]));
  }
}

TEST(Server, DeadlineStopIsAStructuredResultNotAnError) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.deadline_ms = 1e-7;
  const WireResponse resp = service.execute(solve);
  ASSERT_TRUE(resp.ok);  // the no-throw contract extends to the wire
  EXPECT_NE(resp.result_json.find("\"status\": \"deadline_expired\""),
            std::string::npos);
  EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
}

TEST(Server, UnknownTenantAndVerbErrorsAreStructured) {
  ReliabilityService service;
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.tenant = "ghost";
  const WireResponse resp = service.execute(solve);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "unknown_network");
  EXPECT_NE(resp.error_message.find("ghost/default"), std::string::npos);
}

TEST(Server, StreamSurvivesMalformedLines) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  std::stringstream in;
  in << serialize_wire_request(register_request(g)) << "\n"
     << "this is not json\n"
     << R"({"v": 1, "id": 2, "verb": "probe"})" << "\n"
     << R"({"v": 1, "id": 3, "verb": "solve"})" << "\n"
     << R"({"v": 1, "id": 4, "verb": "shutdown"})" << "\n"
     << R"({"v": 1, "id": 5, "verb": "stats"})" << "\n";  // after shutdown
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_TRUE(served.shutdown);
  EXPECT_EQ(served.lines, 5u);  // the post-shutdown line is never read
  EXPECT_EQ(served.responses, 5u);

  std::vector<JsonValue> docs;
  std::string line;
  while (std::getline(out, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 5u);
  EXPECT_TRUE(docs[0].find("ok")->as_bool());
  EXPECT_FALSE(docs[1].find("ok")->as_bool());
  EXPECT_EQ(docs[1].find("error")->find("code")->as_string(), "parse_error");
  EXPECT_FALSE(docs[2].find("ok")->as_bool());
  EXPECT_EQ(docs[2].find("error")->find("code")->as_string(), "unknown_verb");
  EXPECT_EQ(docs[2].find("id")->as_number(), 2.0);
  EXPECT_TRUE(docs[3].find("ok")->as_bool());
  EXPECT_TRUE(docs[4].find("ok")->as_bool());
}

TEST(Server, DeeplyNestedLineGetsOneParseErrorAndServiceKeepsServing) {
  // One line of a million '[' used to overflow the recursive parser's
  // stack and kill the daemon with SIGSEGV.
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::vector<WireResponse> replies;
  service.handle_line(std::string(1'000'000, '['),
                      [&](WireResponse resp) { replies.push_back(resp); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(replies[0].error_code, "parse_error");

  replies.clear();
  service.handle_line(R"({"v": 1, "id": 2, "verb": "solve"})",
                      [&](WireResponse resp) { replies.push_back(resp); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].ok);
}

TEST(Server, MaskBytesGaugeCountsIndexColumnsAndPalettes) {
  // Two 16-link clusters (a 9-node tree plus 8 extra links each).
  Xoshiro256 rng(7);
  ClusteredParams params;
  params.nodes_s = params.nodes_t = 9;
  params.extra_edges_s = params.extra_edges_t = 8;
  params.bottleneck_caps = {2, 3};
  const GeneratedNetwork g = clustered_bottleneck(rng, params);
  const FlowDemand demand{g.source, g.sink, 2};

  QuerySession session(g.net);
  const SolveReport report = session.solve(demand);
  ASSERT_TRUE(report.partition.has_value());
  ASSERT_EQ(session.cached_mask_tables(), 1u);
  const BottleneckArtifacts artifacts =
      build_bottleneck_artifacts(g.net, demand, report.partition->partition);
  std::size_t expected = 0;
  for (const SlabMaskTable* table : {&artifacts.array_s, &artifacts.array_t}) {
    ASSERT_EQ(table->num_links, 16);
    ASSERT_LE(table->palette.size(), 256u);
    EXPECT_EQ(table->index.index(), 0u);  // one byte per configuration
    expected += 65'536 + sizeof(Mask) * table->palette.size();
  }
  EXPECT_EQ(session.cached_mask_bytes(), expected);

  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  ASSERT_TRUE(service.execute(solve).ok);
  const JsonValue stats = parse_json(service.stats_json());
  EXPECT_EQ(stats.find("tenants")
                ->find("default/default")
                ->find("mask_bytes")
                ->as_number(),
            static_cast<double>(expected));
}

TEST(Server, SaturatedSchedulerShedsWithBoundsAttached) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::mutex mu;
  std::vector<WireResponse> responses;
  auto done = [&](WireResponse resp) {
    const std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(resp));
  };
  // One bulk batch to occupy the single worker, then interactive solves
  // whose microscopic deadlines are blown by the time a worker frees up.
  WireRequest bulk = batch_request();
  bulk.id_json = "\"bulk\"";
  service.handle_line(serialize_wire_request(bulk), done);
  for (int i = 0; i < 8; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.id_json = std::to_string(100 + i);
    solve.deadline_ms = 1e-6;
    service.handle_line(serialize_wire_request(solve), done);
  }
  service.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 9u);  // every request got a response
  std::size_t shed = 0;
  for (const WireResponse& resp : responses) {
    if (resp.id_json == "\"bulk\"") continue;
    ASSERT_TRUE(resp.ok) << resp.error_message;
    if (resp.result_json.find("\"shed\": true") != std::string::npos) {
      ++shed;
      EXPECT_NE(resp.result_json.find("deadline_expired"), std::string::npos);
      EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(service.shed_count(), shed);
}

TEST(Server, ConcurrentTenantsStayIsolated) {
  constexpr int kTenants = 4;
  constexpr int kRoundsPerTenant = 12;
  std::vector<GeneratedNetwork> nets;
  ReliabilityService service;
  std::vector<WireResponse> baselines;
  for (int t = 0; t < kTenants; ++t) {
    nets.push_back(test_instance(static_cast<std::uint64_t>(7 + t)));
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(service.execute(register_request(nets.back(), tenant)).ok);
    baselines.push_back(service.execute(batch_request(tenant)));
    ASSERT_TRUE(baselines.back().ok);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int round = 0; round < kRoundsPerTenant; ++round) {
        // Readers: warm batches must keep answering the registered
        // network's question no matter what other tenants do.
        const WireResponse warm = service.execute(batch_request(tenant));
        if (!warm.ok || warm.legacy_lines != baselines[static_cast<std::size_t>(t)].legacy_lines) {
          failures.fetch_add(1);
        }
        // And a point query through the interactive path.
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        solve.tenant = tenant;
        solve.want_trace = true;
        if (!service.execute(solve).ok) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const JsonValue stats = parse_json(service.stats_json());
  EXPECT_EQ(stats.find("sessions")->as_number(), 4.0);
  const JsonValue* tenants = stats.find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_NE(tenants->find("tenant0/default"), nullptr);
}

TEST(Server, ConcurrentDeltasAndReadsOnOneTenant) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      WireRequest delta;
      delta.verb = WireVerb::kApplyDelta;
      delta.delta.set_failure_prob(0, 0.05 + 0.01 * static_cast<double>(i % 5));
      if (!service.execute(delta).ok) failures.fetch_add(1);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        const WireResponse resp = service.execute(solve);
        if (!resp.ok) failures.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Topology deltas renumber links. The service applies a delta inline on a
// connection thread while solves run on workers, so a tenant's warm
// accumulate may run after a delta that landed between its prepare and
// its accumulate: the answer must still be the one of a single network
// state, read through the snapshot the prepare pinned.
TEST(Server, ConcurrentTopologyDeltasAndReadsOnOneTenant) {
  const GeneratedNetwork g = test_instance();
  FlowNetwork net = g.net;
  // Distinct probabilities: a link read under another link's id changes
  // the answer.
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    net.set_failure_prob(e, 0.02 + 0.01 * static_cast<double>(e));
  }
  EdgeId link = 0;  // the lowest-id link inside a side
  while (g.side_s[static_cast<std::size_t>(net.edge(link).u)] !=
         g.side_s[static_cast<std::size_t>(net.edge(link).v)]) {
    ++link;
  }
  const Edge removed = net.edge(link);
  const auto re_add = [&] {
    return NetworkDelta().add_edge(removed.u, removed.v, removed.capacity,
                                   removed.failure_prob, removed.kind);
  };
  const FlowDemand demand{g.source, g.sink, 2};

  // The three reachable states: the original, the link removed, and the
  // link re-added as the last id (removing it again returns to the second).
  const FlowNetwork without =
      apply_delta(net, NetworkDelta().remove_edge(link)).net;
  const FlowNetwork re_added = apply_delta(without, re_add()).net;
  std::vector<double> cold;
  for (const FlowNetwork& state : {net, without, re_added}) {
    cold.push_back(compute_reliability(state, demand).result.reliability);
  }
  ASSERT_NE(std::memcmp(&cold[0], &cold[1], sizeof(double)), 0);

  TenantSession tenant(net, demand, QueryCacheOptions{}, false);
  std::atomic<int> mismatches{0};
  std::atomic<int> solves{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    EdgeId id = link;
    for (int i = 0; i < 40; ++i) {
      // At least one answer between cycles, so deltas land among solves.
      const int seen = solves.load();
      while (solves.load() == seen) std::this_thread::yield();
      tenant.apply_delta(NetworkDelta().remove_edge(id));
      tenant.apply_delta(re_add());
      id = net.num_edges() - 1;
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      SolveOptions options;
      options.max_threads = 1;
      while (!stop.load()) {
        const double got =
            tenant.solve(demand, options, {}).result.reliability;
        const bool known =
            std::any_of(cold.begin(), cold.end(), [&](double want) {
              return std::memcmp(&got, &want, sizeof(double)) == 0;
            });
        if (!known) mismatches.fetch_add(1);
        solves.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& th : readers) th.join();
  EXPECT_GT(solves.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "of " << solves.load() << " solves";
}

TEST(Server, ReplayVerbMatchesTheStandaloneRenderers) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest replay;
  replay.verb = WireVerb::kReplay;
  replay.events.resize(2);
  replay.events[0].time = 1.0;
  replay.events[0].label = "degrade";
  replay.events[0].delta.set_failure_prob(0, 0.5);
  replay.events[1].time = 2.0;
  replay.events[1].delta.set_failure_prob(0, 0.1);
  const WireResponse warm = service.execute(replay);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.legacy_lines.size(), 3u);  // initial + 2 events

  replay.cold = true;
  const WireResponse cold = service.execute(replay);
  ASSERT_TRUE(cold.ok);
  ASSERT_EQ(cold.legacy_lines.size(), warm.legacy_lines.size());
  // Warm (session) and cold (recompile) replays agree on the R(t)
  // series; only the cache columns differ (cold has no cache to keep).
  for (std::size_t i = 0; i < warm.legacy_lines.size(); ++i) {
    const JsonValue w = parse_json(warm.legacy_lines[i]);
    const JsonValue c = parse_json(cold.legacy_lines[i]);
    EXPECT_EQ(w.find("reliability")->as_number(),
              c.find("reliability")->as_number());
  }
  EXPECT_NE(warm.legacy_summary.find("\"mode\": \"warm\""),
            std::string::npos);
  EXPECT_NE(cold.legacy_summary.find("\"mode\": \"cold\""),
            std::string::npos);
  // Replay is read-only: the registered session still answers cold.
  EXPECT_TRUE(service.execute(batch_request()).ok);
}

TEST(Server, PerRequestTraceCaptureDoesNotLeakAcrossThreads) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  Tracer::clear();
  WireRequest traced;
  traced.verb = WireVerb::kSolve;
  traced.want_trace = true;
  const WireResponse resp = service.execute(traced);
  ASSERT_TRUE(resp.ok);
  EXPECT_NE(resp.result_json.find("\"trace\""), std::string::npos);
  EXPECT_NE(resp.result_json.find("query_prepare"), std::string::npos);
  // Captured spans were diverted, not published to the global rings.
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST(Server, StatsExposesQueueEstimateAndPerLaneSheds) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  // Force interactive sheds: pin the worker, then blow deadlines.
  std::atomic<int> answered{0};
  auto done = [&](WireResponse) { answered.fetch_add(1); };
  service.handle_line(serialize_wire_request(batch_request()), done);
  for (int i = 0; i < 6; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.deadline_ms = 1e-6;
    service.handle_line(serialize_wire_request(solve), done);
  }
  service.drain();
  ASSERT_EQ(answered.load(), 7);

  const JsonValue stats = parse_json(service.stats_json());
  const JsonValue* lanes = stats.find("lanes");
  ASSERT_NE(lanes, nullptr);
  for (const char* lane : {"interactive", "bulk"}) {
    const JsonValue* snap = lanes->find(lane);
    ASSERT_NE(snap, nullptr) << lane;
    ASSERT_NE(snap->find("queue_estimate_ms"), nullptr) << lane;
    ASSERT_NE(snap->find("shed"), nullptr) << lane;
  }
  const double interactive_shed =
      lanes->find("interactive")->find("shed")->as_number();
  EXPECT_GT(interactive_shed, 0.0);
  EXPECT_EQ(static_cast<std::uint64_t>(interactive_shed) +
                static_cast<std::uint64_t>(
                    lanes->find("bulk")->find("shed")->as_number()),
            service.shed_count());
}

/// Output sink that parks its first writer until release() — a batch's
/// progress line is printed from inside the batch, under its session's
/// writer lock, so a parked write pins that batch in flight.
class ParkingStreamBuf : public std::streambuf {
 public:
  void wait_parked() { parked_.wait(); }
  void release() { released_.count_down(); }

 protected:
  int_type overflow(int_type ch) override {
    park();
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    park();
    return n;
  }

 private:
  void park() {
    if (!first_.exchange(true)) parked_.count_down();
    released_.wait();
  }

  std::atomic<bool> first_{false};
  std::latch parked_{1};
  std::latch released_{1};
};

TEST(Server, RegistrationAndStatsDoNotWaitForAnotherTenantsBatch) {
  ServiceOptions options;
  options.global_mask_tables = 2;
  ReliabilityService service(options);
  const GeneratedNetwork busy_net = test_instance(21);
  ASSERT_TRUE(service.execute(register_request(busy_net, "busy")).ok);

  // A cold batch on "busy" that builds two mask tables, and parks in its
  // first progress write while it holds busy's writer lock.
  WireRequest batch;
  batch.verb = WireVerb::kBatch;
  batch.lane = WireLane::kBulk;
  batch.tenant = "busy";
  batch.queries.resize(2);
  for (WireQuery& q : batch.queries) q.method = Method::kBottleneck;
  batch.queries[1].rate = 1;
  ParkingStreamBuf sink;
  std::ostream progress_out(&sink);
  RequestHooks hooks;
  hooks.progress = std::make_shared<ProgressReporter>(&progress_out);
  std::atomic<bool> batch_ok{false};
  std::thread batch_thread(
      [&] { batch_ok = service.execute(batch, hooks).ok; });
  sink.wait_parked();

  // Both run on their own threads so a wait on busy's lock would show
  // as a timeout here instead of a hung test.
  auto registered = std::async(std::launch::async, [&] {
    return service.execute(register_request(test_instance(22), "newcomer"));
  });
  const bool register_done =
      registered.wait_for(std::chrono::seconds(30)) ==
      std::future_status::ready;
  std::future<WireResponse> stats;
  bool stats_done = false;
  if (register_done) {
    stats = std::async(std::launch::async, [&] {
      WireRequest statsv;
      statsv.verb = WireVerb::kStats;
      WireResponse resp = service.execute(statsv);
      if (service.metrics_text().empty()) resp.ok = false;
      return resp;
    });
    stats_done =
        stats.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  }
  // Asserted only after the batch is released, so a failure never
  // leaves the parked thread behind.
  const bool batch_still_parked = !batch_ok.load();
  sink.release();
  batch_thread.join();
  EXPECT_TRUE(batch_ok.load());
  ASSERT_TRUE(register_done) << "register_network waited for busy's batch";
  ASSERT_TRUE(stats_done) << "stats or a scrape waited for busy's batch";
  EXPECT_TRUE(batch_still_parked);

  // Two implicit sessions split the cap of 2: one table each.
  const WireResponse reg = registered.get();
  ASSERT_TRUE(reg.ok) << reg.error_message;
  EXPECT_EQ(parse_json(reg.result_json).find("cache_budget")->as_number(),
            1.0);
  const WireResponse during = stats.get();
  ASSERT_TRUE(during.ok);
  const JsonValue during_doc = parse_json(during.result_json);
  const JsonValue* tenants = during_doc.find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_EQ(tenants->find("busy/default")->find("budget")->as_number(), 1.0);
  EXPECT_EQ(tenants->find("newcomer/default")->find("budget")->as_number(),
            1.0);

  // The shrink published mid-batch took effect when the batch let go of
  // its lock: one of its two tables was evicted.
  const JsonValue after = parse_json(service.stats_json());
  const JsonValue* busy = after.find("tenants")->find("busy/default");
  EXPECT_EQ(busy->find("mask_tables")->as_number(), 1.0);
  EXPECT_EQ(busy->find("cache_evictions")->as_number(), 1.0);
  EXPECT_EQ(busy->find("budget")->as_number(), 1.0);
}

TEST(Server, QueueWaitCountsAgainstTheDeadline) {
  constexpr double kPinMs = 1000.0;
  constexpr double kDeadlineMs = 1200.0;
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(test_instance(21), "busy")).ok);
  // 30 links: an exact naive solve enumerates 2^30 configurations, far
  // beyond the deadline.
  Xoshiro256 rng(3);
  const GeneratedNetwork big =
      random_multigraph(rng, 10, 30, CapacityRange{1, 3}, ProbRange{});
  ASSERT_TRUE(service.execute(register_request(big)).ok);

  // Pin the only worker: a bulk batch parks in its first progress write.
  WireRequest batch;
  batch.verb = WireVerb::kBatch;
  batch.lane = WireLane::kBulk;
  batch.tenant = "busy";
  batch.queries.resize(1);
  batch.queries[0].method = Method::kBottleneck;
  ParkingStreamBuf sink;
  std::ostream progress_out(&sink);
  RequestHooks hooks;
  hooks.progress = std::make_shared<ProgressReporter>(&progress_out);
  std::atomic<bool> batch_ok{false};
  service.handle_line(serialize_wire_request(batch),
                      [&](WireResponse resp) { batch_ok = resp.ok; }, hooks);
  sink.wait_parked();

  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.deadline_ms = kDeadlineMs;
  solve.query.method = Method::kNaive;
  std::promise<WireResponse> answered;
  const auto submitted = std::chrono::steady_clock::now();
  service.handle_line(serialize_wire_request(solve),
                      [&](WireResponse resp) {
                        answered.set_value(std::move(resp));
                      });
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(kPinMs));
  sink.release();
  const WireResponse resp = answered.get_future().get();
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - submitted)
                               .count();
  service.drain();
  EXPECT_TRUE(batch_ok.load());

  // The deadline runs from admission, so the queue wait is part of it:
  // the solve gets what is left (about kDeadlineMs - kPinMs), not a
  // fresh kDeadlineMs from pickup.
  EXPECT_LT(waited_ms, kDeadlineMs + 500.0);
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_NE(resp.result_json.find("\"status\": \"deadline_expired\""),
            std::string::npos);
  EXPECT_NE(resp.result_json.find("\"bounds\""), std::string::npos);
  EXPECT_EQ(resp.result_json.find("\"shed\""), std::string::npos);
}

TEST(Server, StatsStaysCoherentUnderConcurrentTenantsAndScrapes) {
  constexpr int kTenants = 4;
  std::vector<GeneratedNetwork> nets;
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);
  for (int t = 0; t < kTenants; ++t) {
    nets.push_back(test_instance(static_cast<std::uint64_t>(11 + t)));
    const std::string tenant = "tenant" + std::to_string(t);
    ASSERT_TRUE(service.execute(register_request(nets.back(), tenant)).ok);
  }

  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < kTenants; ++t) {
    load.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int round = 0; round < 16; ++round) {
        WireRequest solve;
        solve.verb = WireVerb::kSolve;
        solve.tenant = tenant;
        solve.deadline_ms = 10'000.0;
        sent.fetch_add(1);
        service.handle_line(serialize_wire_request(solve),
                            [&](WireResponse resp) {
                              if (!resp.ok) failures.fetch_add(1);
                            });
      }
    });
  }
  // Scrapers: the stats verb AND the Prometheus exposition, both racing
  // the load. Every snapshot must parse; neither may block a solve.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        WireRequest statsv;
        statsv.verb = WireVerb::kStats;
        const WireResponse resp = service.execute(statsv);
        if (!resp.ok) failures.fetch_add(1);
        try {
          const JsonValue doc = parse_json(resp.result_json);
          if (doc.find("lanes") == nullptr ||
              doc.find("tenants") == nullptr) {
            failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
        if (service.metrics_text().empty()) failures.fetch_add(1);
      }
    });
  }
  // Registrations race the scrapes and the load: new tenants shrink the
  // implicit share, a replacement leaves it alone.
  constexpr int kLate = 4;
  std::thread registrar([&] {
    for (int r = 0; r <= kLate; ++r) {
      const std::string tenant = "late" + std::to_string(r % kLate);
      const WireResponse resp = service.execute(register_request(
          test_instance(static_cast<std::uint64_t>(31 + r)), tenant));
      if (!resp.ok) {
        failures.fetch_add(1);
        continue;
      }
      const double budget =
          parse_json(resp.result_json).find("cache_budget")->as_number();
      if (budget < 1.0 || budget > 256.0) failures.fetch_add(1);
    }
  });
  registrar.join();
  for (std::thread& th : load) th.join();
  service.drain();
  stop.store(true);
  for (std::thread& th : scrapers) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The stats scrapers themselves count as requests, so the total is a
  // lower bound, not an equality.
  const JsonValue stats = parse_json(service.stats_json());
  EXPECT_GE(stats.find("requests")->as_number(),
            static_cast<double>(sent.load()));
  // Once quiet, every implicit session holds the eager share and fits it.
  EXPECT_EQ(stats.find("sessions")->as_number(), kTenants + kLate);
  const double share = 256.0 / (kTenants + kLate);
  for (const auto& [name, tenant] : stats.find("tenants")->as_object()) {
    EXPECT_EQ(tenant.find("budget")->as_number(), share) << name;
    EXPECT_LE(tenant.find("mask_tables")->as_number(), share) << name;
  }
}

TEST(Server, MetricsVerbRendersValidExposition) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.want_telemetry = true;  // feeds the telemetry -> metrics bridge
  ASSERT_TRUE(service.execute(solve).ok);

  WireRequest metrics;
  metrics.verb = WireVerb::kMetrics;
  const WireResponse resp = service.execute(metrics);
  ASSERT_TRUE(resp.ok);
  const JsonValue result = parse_json(resp.result_json);
  EXPECT_GT(result.find("series")->as_number(), 0.0);
  EXPECT_EQ(result.find("content_type")->as_string(),
            kPrometheusContentType);
  const std::string text = result.find("text")->as_string();
  EXPECT_NE(text.find("# TYPE streamrel_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE streamrel_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("streamrel_sessions 1"), std::string::npos);
  EXPECT_NE(
      text.find(
          "streamrel_requests_total{code=\"ok\",lane=\"interactive\","
          "verb=\"solve\"} 1"),
      std::string::npos);
  // The engine telemetry bridge produced engine-labeled series (label
  // keys render sorted: counter before engine).
  EXPECT_NE(text.find("streamrel_engine_work_total{counter="),
            std::string::npos);
  // le="+Inf" closes every histogram series.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// Engine work is counted once per build: the cold solve bridges exactly
// the facade's max-flow work, and warm what-ifs on the same tenant leave
// every streamrel_engine_work_total series where it was.
TEST(Server, WarmWhatIfsLeaveEngineWorkUnchanged) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  const auto engine_work = [&service] {
    std::map<std::string, double> series;
    std::istringstream text(service.metrics_text());
    for (std::string line; std::getline(text, line);) {
      if (line.rfind("streamrel_engine_work_total{", 0) != 0) continue;
      const std::size_t space = line.rfind(' ');
      series[line.substr(0, space)] = std::stod(line.substr(space + 1));
    }
    return series;
  };
  EXPECT_TRUE(engine_work().empty());

  WireRequest cold;
  cold.verb = WireVerb::kSolve;
  ASSERT_TRUE(service.execute(cold).ok);
  const std::map<std::string, double> after_cold = engine_work();
  const std::uint64_t facade_calls =
      compute_reliability(g.net, {g.source, g.sink, 2}).result.maxflow_calls();
  ASSERT_GT(facade_calls, 0u);
  const auto calls = after_cold.find(
      "streamrel_engine_work_total{counter=\"maxflow_calls\","
      "engine=\"bottleneck\"}");
  ASSERT_NE(calls, after_cold.end());
  EXPECT_EQ(calls->second, static_cast<double>(facade_calls));

  for (int i = 0; i < 8; ++i) {
    WireRequest what_if;
    what_if.verb = WireVerb::kSolve;
    what_if.query.overrides.push_back(
        ProbOverride{static_cast<EdgeId>(i % 4), 0.05 * (i + 1)});
    const WireResponse resp = service.execute(what_if);
    ASSERT_TRUE(resp.ok);
    EXPECT_NE(resp.result_json.find("\"status\": \"exact\""),
              std::string::npos);
  }
  EXPECT_EQ(engine_work(), after_cold);
}

TEST(Server, DumpVerbReturnsFlightRecordsInline) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.flight_capacity = 4;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  for (int i = 0; i < 6; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    solve.id_json = std::to_string(i);
    ASSERT_TRUE(service.execute(solve).ok);
  }

  WireRequest dump;
  dump.verb = WireVerb::kDump;
  const WireResponse resp = service.execute(dump);
  ASSERT_TRUE(resp.ok);
  const JsonValue result = parse_json(resp.result_json);
  EXPECT_EQ(result.find("retained")->as_number(), 4.0);
  EXPECT_EQ(result.find("total_recorded")->as_number(), 7.0);
  const JsonValue* records = result.find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->as_array().size(), 4u);
  // Oldest first, and the ring dropped the three earliest requests.
  EXPECT_EQ(records->as_array().front().find("seq")->as_number(), 4.0);
  EXPECT_EQ(records->as_array().back().find("seq")->as_number(), 7.0);
  EXPECT_EQ(records->as_array().back().find("verb")->as_string(), "solve");
  EXPECT_EQ(records->as_array().back().find("engine")->as_string().empty(),
            false);
}

TEST(Server, StreamTransportAnswersGetMetrics) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  std::stringstream in;
  in << serialize_wire_request(register_request(g)) << "\n"
     << R"({"v": 1, "id": 1, "verb": "solve"})" << "\n"
     << "GET /metrics\n"
     << R"({"v": 1, "id": 2, "verb": "shutdown"})" << "\n";
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_TRUE(served.shutdown);
  // The GET line is answered with raw exposition, not counted as a
  // wire request.
  EXPECT_EQ(served.lines, 3u);
  EXPECT_EQ(served.responses, 3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE streamrel_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("streamrel_request_latency_ms_bucket"),
            std::string::npos);
}

TEST(Server, RequestLogRecordsEveryRequestThroughTheService) {
  const GeneratedNetwork g = test_instance();
  std::ostringstream log;
  ServiceOptions options;
  options.request_log = &log;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "\"rq-1\"";
  ASSERT_TRUE(service.execute(solve).ok);
  WireRequest ghost;
  ghost.verb = WireVerb::kSolve;
  ghost.tenant = "ghost";
  EXPECT_FALSE(service.execute(ghost).ok);

  std::vector<JsonValue> lines;
  std::istringstream in(log.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(parse_json(line));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("verb")->as_string(), "register_network");
  EXPECT_TRUE(lines[0].find("ok")->as_bool());
  EXPECT_EQ(lines[1].find("id")->as_string(), "rq-1");
  EXPECT_EQ(lines[1].find("verb")->as_string(), "solve");
  EXPECT_EQ(lines[1].find("status")->as_string(), "exact");
  EXPECT_FALSE(lines[1].find("engine")->as_string().empty());
  EXPECT_GT(lines[1].find("solve_us")->as_number(), 0.0);
  EXPECT_FALSE(lines[2].find("ok")->as_bool());
  EXPECT_EQ(lines[2].find("error_code")->as_string(), "unknown_network");
}

TEST(Server, SolveResultsAreIdenticalWithAndWithoutInstrumentation) {
  // The acceptance bar: metrics/logging must never perturb the
  // arithmetic. Same request, one service with every sink enabled and
  // one bare — bitwise-identical rendered results.
  const GeneratedNetwork g = test_instance();
  std::ostringstream log;
  ServiceOptions instrumented;
  instrumented.request_log = &log;
  instrumented.flight_capacity = 8;
  ReliabilityService with_obs(instrumented);
  ReliabilityService bare;
  ASSERT_TRUE(with_obs.execute(register_request(g)).ok);
  ASSERT_TRUE(bare.execute(register_request(g)).ok);

  for (int i = 0; i < 3; ++i) {
    WireRequest solve;
    solve.verb = WireVerb::kSolve;
    if (i == 2) solve.query.overrides.push_back(ProbOverride{0, 0.42});
    const WireResponse a = with_obs.execute(solve);
    const WireResponse b = bare.execute(solve);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    // Everything but the wall-clock field must match bit for bit
    // (reliability is rendered to full precision).
    const JsonValue da = parse_json(a.result_json);
    const JsonValue db = parse_json(b.result_json);
    EXPECT_EQ(da.find("reliability")->as_number(),
              db.find("reliability")->as_number());
    EXPECT_EQ(da.find("status")->as_string(), db.find("status")->as_string());
    EXPECT_EQ(da.find("method")->as_string(), db.find("method")->as_string());
    EXPECT_EQ(da.find("engine")->as_string(), db.find("engine")->as_string());
  }
  const WireResponse batch_a = with_obs.execute(batch_request());
  const WireResponse batch_b = bare.execute(batch_request());
  ASSERT_TRUE(batch_a.ok);
  EXPECT_EQ(batch_a.legacy_lines, batch_b.legacy_lines);
}

TEST(Server, TcpLoopbackRoundTrip) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);

  std::unique_ptr<TcpServer> server;
  try {
    server = std::make_unique<TcpServer>(service, TcpServerOptions{});
  } catch (const std::exception& e) {
    GTEST_SKIP() << "no loopback TCP available: " << e.what();
  }
  std::thread runner([&] { server->run(); });

  std::stringstream script;
  WireRequest reg = register_request(g);
  reg.id_json = "1";
  script << serialize_wire_request(reg) << "\n";
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "2";
  script << serialize_wire_request(solve) << "\n";

  const std::vector<std::string> replies =
      tcp_client_exchange("127.0.0.1", server->port(), script.str(), 2);
  server->stop();
  runner.join();

  ASSERT_EQ(replies.size(), 2u);
  bool saw_solve = false;
  for (const std::string& line : replies) {
    const JsonValue doc = parse_json(line);
    EXPECT_TRUE(doc.find("ok")->as_bool());
    if (doc.find("id")->as_number() == 2.0) {
      saw_solve = true;
      EXPECT_NE(doc.find("result")->find("reliability"), nullptr);
    }
  }
  EXPECT_TRUE(saw_solve);
}

/// Loopback TcpServer on an ephemeral port, run on its own thread for
/// the lifetime of the fixture; null when sockets are unavailable.
struct LoopbackServer {
  std::unique_ptr<TcpServer> server;
  std::thread runner;

  explicit LoopbackServer(ReliabilityService& service) {
    try {
      server = std::make_unique<TcpServer>(service, TcpServerOptions{});
    } catch (const std::exception&) {
      return;
    }
    runner = std::thread([this] { server->run(); });
  }
  ~LoopbackServer() {
    if (!server) return;
    server->stop();
    runner.join();
  }
};

std::string error_code_of(const std::string& line) {
  const JsonValue doc = parse_json(line);
  if (doc.find("ok")->as_bool()) return "";
  return doc.find("error")->find("code")->as_string();
}

TEST(Server, TcpOverCapLineGetsOneParseErrorAndNextConnectionIsServed) {
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);
  LoopbackServer loop(service);
  if (!loop.server) GTEST_SKIP() << "no loopback TCP available";

  // One byte past the cap and no newline: the server must answer once
  // and hang up rather than buffer the line forever.
  const std::vector<std::string> refused = tcp_client_exchange(
      "127.0.0.1", loop.server->port(),
      std::string(kMaxWireLineBytes + 1, 'x'), 2);
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(error_code_of(refused[0]), "parse_error");

  std::stringstream script;
  WireRequest reg = register_request(g);
  reg.id_json = "1";
  script << serialize_wire_request(reg) << "\n";
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  solve.id_json = "2";
  script << serialize_wire_request(solve) << "\n";
  const std::vector<std::string> replies =
      tcp_client_exchange("127.0.0.1", loop.server->port(), script.str(), 2);
  ASSERT_EQ(replies.size(), 2u);
  for (const std::string& line : replies) EXPECT_EQ(error_code_of(line), "");
}

TEST(Server, TcpDeeplyNestedLineGetsOneParseErrorAndConnectionKeepsServing) {
  // The TCP variant of DeeplyNestedLineGetsOneParseErrorAndServiceKeeps-
  // Serving: the 1M-'[' line sits under the line cap, so the parser's
  // depth cap answers it and the same connection goes on serving.
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 2;
  ReliabilityService service(options);
  LoopbackServer loop(service);
  if (!loop.server) GTEST_SKIP() << "no loopback TCP available";

  std::stringstream script;
  WireRequest reg = register_request(g);
  reg.id_json = "1";
  script << serialize_wire_request(reg) << "\n"
         << std::string(1'000'000, '[') << "\n"
         << R"({"v": 1, "id": 3, "verb": "solve"})" << "\n";
  const std::vector<std::string> replies =
      tcp_client_exchange("127.0.0.1", loop.server->port(), script.str(), 3);
  ASSERT_EQ(replies.size(), 3u);
  int parse_errors = 0;
  bool solved = false;
  for (const std::string& line : replies) {
    const std::string code = error_code_of(line);
    if (code == "parse_error") ++parse_errors;
    if (code.empty() && parse_json(line).find("id")->as_number() == 3.0) {
      solved = true;
    }
  }
  EXPECT_EQ(parse_errors, 1);
  EXPECT_TRUE(solved);
}

TEST(Server, StreamOverCapLineGetsOneParseErrorAndStreamKeepsServing) {
  const GeneratedNetwork g = test_instance();
  ReliabilityService service;
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  std::stringstream in;
  in << std::string(kMaxWireLineBytes + 1, 'x') << "\n"
     << R"({"v": 1, "id": 2, "verb": "solve"})" << "\n";
  std::stringstream out;
  const StreamServeResult served = serve_stream(service, in, out);
  EXPECT_EQ(served.lines, 2u);
  EXPECT_EQ(served.responses, 2u);
  std::vector<std::string> replies;
  std::string line;
  while (std::getline(out, line)) replies.push_back(line);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(error_code_of(replies[0]), "parse_error");
  EXPECT_EQ(error_code_of(replies[1]), "");
}

// --- durable sessions (--state-dir) ------------------------------------

namespace fs = std::filesystem;

/// Fresh scratch state root per test, removed on destruction.
struct ScratchStateDir {
  fs::path path;
  explicit ScratchStateDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("streamrel_server_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
  }
  ~ScratchStateDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

ServiceOptions durable_options(const ScratchStateDir& scratch) {
  ServiceOptions options;
  options.state_dir = scratch.path.string();
  options.state_fsync = false;  // scratch dirs; the crash test opts back in
  return options;
}

/// Extracts the rendered value of `key` from a flat JSON object string
/// (up to the next ',' or '}') — enough to pin a member bitwise.
std::string json_member(const std::string& object_json,
                        const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = object_json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = object_json.find_first_of(",}", start);
  return object_json.substr(start, end - start);
}

WireRequest solve_request() {
  WireRequest solve;
  solve.verb = WireVerb::kSolve;
  return solve;
}

TEST(ServerPersist, RestartFromStateDirAnswersBitwiseIdentically) {
  const ScratchStateDir scratch("restart");
  const GeneratedNetwork g = test_instance();
  std::string reliability_before;
  std::vector<std::string> batch_before;
  {
    ReliabilityService service(durable_options(scratch));
    const WireResponse reg = service.execute(register_request(g));
    ASSERT_TRUE(reg.ok);
    EXPECT_EQ(json_member(reg.result_json, "persisted"), "true");

    WireRequest delta;
    delta.verb = WireVerb::kApplyDelta;
    delta.delta.set_failure_prob(0, 0.35);
    delta.delta.set_capacity(1, 2);
    ASSERT_TRUE(service.execute(delta).ok);  // journaled to the WAL

    const WireResponse solve = service.execute(solve_request());
    ASSERT_TRUE(solve.ok);
    reliability_before = json_member(solve.result_json, "reliability");
    ASSERT_FALSE(reliability_before.empty());
    const WireResponse batch = service.execute(batch_request());
    ASSERT_TRUE(batch.ok);
    batch_before = batch.legacy_lines;

    // The shutdown verb checkpoints every session before stopping.
    WireRequest shutdown;
    shutdown.verb = WireVerb::kShutdown;
    const WireResponse stop = service.execute(shutdown);
    ASSERT_TRUE(stop.ok);
    EXPECT_EQ(json_member(stop.result_json, "checkpointed"), "1");
    EXPECT_EQ(json_member(stop.result_json, "checkpoint_failures"), "0");
  }

  ReliabilityService service(durable_options(scratch));
  EXPECT_EQ(service.boot_restore().restored, 1u);
  EXPECT_EQ(service.boot_restore().corrupt, 0u);

  // No re-register: the restored session answers, bitwise.
  const WireResponse solve = service.execute(solve_request());
  ASSERT_TRUE(solve.ok);
  EXPECT_EQ(json_member(solve.result_json, "reliability"),
            reliability_before);
  const WireResponse batch = service.execute(batch_request());
  ASSERT_TRUE(batch.ok);
  EXPECT_EQ(batch.legacy_lines, batch_before);

  // stats surfaces the durability counters.
  const std::string stats = service.stats_json();
  EXPECT_NE(stats.find("\"persist\""), std::string::npos);
  EXPECT_NE(stats.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(stats.find("\"restores\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"durable\": true"), std::string::npos);
}

TEST(ServerPersist, RestartAfterDtorCheckpointAlsoRestores) {
  const ScratchStateDir scratch("dtor");
  const GeneratedNetwork g = test_instance();
  std::string before;
  {
    ReliabilityService service(durable_options(scratch));
    ASSERT_TRUE(service.execute(register_request(g)).ok);
    WireRequest delta;
    delta.verb = WireVerb::kApplyDelta;
    delta.delta.set_failure_prob(2, 0.6);
    ASSERT_TRUE(service.execute(delta).ok);
    const WireResponse solve = service.execute(solve_request());
    ASSERT_TRUE(solve.ok);
    before = json_member(solve.result_json, "reliability");
  }  // no shutdown verb: the destructor checkpoints

  ReliabilityService service(durable_options(scratch));
  ASSERT_EQ(service.boot_restore().restored, 1u);
  const WireResponse solve = service.execute(solve_request());
  ASSERT_TRUE(solve.ok);
  EXPECT_EQ(json_member(solve.result_json, "reliability"), before);
}

TEST(ServerPersist, PersistAndRestoreVerbsRoundTrip) {
  const ScratchStateDir scratch("verbs");
  const GeneratedNetwork g = test_instance();
  ReliabilityService service(durable_options(scratch));
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  WireRequest delta;
  delta.verb = WireVerb::kApplyDelta;
  delta.delta.set_failure_prob(1, 0.8);
  ASSERT_TRUE(service.execute(delta).ok);
  const WireResponse before = service.execute(solve_request());
  ASSERT_TRUE(before.ok);

  WireRequest persist;
  persist.verb = WireVerb::kPersist;
  const WireResponse persisted = service.execute(persist);
  ASSERT_TRUE(persisted.ok) << persisted.error_message;
  EXPECT_EQ(json_member(persisted.result_json, "checkpoints"), "2");

  WireRequest restore;
  restore.verb = WireVerb::kRestore;
  const WireResponse restored = service.execute(restore);
  ASSERT_TRUE(restored.ok) << restored.error_message;
  EXPECT_EQ(json_member(restored.result_json, "replayed_deltas"), "0");

  // The freshly restored session solves identically to the live one it
  // replaced (the WAL held every applied delta).
  const WireResponse after = service.execute(solve_request());
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(json_member(after.result_json, "reliability"),
            json_member(before.result_json, "reliability"));
}

TEST(ServerPersist, VerbsWithoutStateDirAreBadRequests) {
  ReliabilityService service;  // no state_dir
  const GeneratedNetwork g = test_instance();
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  for (const WireVerb verb : {WireVerb::kPersist, WireVerb::kRestore}) {
    WireRequest req;
    req.verb = verb;
    const WireResponse resp = service.execute(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "bad_request");
  }
}

TEST(ServerPersist, CorruptStateColdStartsAndRestoreSaysStateCorrupt) {
  const ScratchStateDir scratch("corrupt");
  const GeneratedNetwork g = test_instance();
  {
    ReliabilityService service(durable_options(scratch));
    ASSERT_TRUE(service.execute(register_request(g)).ok);
  }
  // Flip one byte of the snapshot: the boot must cold-start with a
  // warning, never crash, never adopt the bytes.
  const StateDir state(scratch.path);
  const fs::path snap = state.store_path("default", "default") / "snapshot.bin";
  {
    std::fstream file(snap,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(40);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(40);
    file.write(&byte, 1);
  }

  ReliabilityService service(durable_options(scratch));
  EXPECT_EQ(service.boot_restore().restored, 0u);
  EXPECT_EQ(service.boot_restore().corrupt, 1u);
  ASSERT_FALSE(service.boot_restore().warnings.empty());

  // Not restored: the session is gone until re-registered...
  const WireResponse missing = service.execute(solve_request());
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.error_code, "unknown_network");

  // ...and an explicit restore reports the structured corruption error.
  WireRequest restore;
  restore.verb = WireVerb::kRestore;
  const WireResponse resp = service.execute(restore);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "state_corrupt");

  // Re-registering heals the store (fresh checkpoint over the bad one).
  ASSERT_TRUE(service.execute(register_request(g)).ok);
  const WireResponse healed = service.execute(restore);
  EXPECT_TRUE(healed.ok) << healed.error_message;

  // Two refusals: the boot pass and the failed restore verb.
  const std::string metrics = service.metrics_text();
  EXPECT_NE(metrics.find("streamrel_state_corrupt_total 2"),
            std::string::npos);
}

TEST(ServerPersist, RejectOverloadedEchoesIdVerbAndCountsPerLane) {
  ReliabilityService service;
  const WireResponse resp = service.reject_overloaded(
      "{\"v\": 1, \"id\": 42, \"verb\": \"batch\", \"queries\": []}");
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "overloaded");
  EXPECT_EQ(resp.id_json, "42");
  EXPECT_EQ(resp.verb, "batch");
  // batch defaults to the bulk lane; the reject is counted there.
  const std::string metrics = service.metrics_text();
  EXPECT_NE(
      metrics.find("streamrel_backpressure_rejects_total{lane=\"bulk\"} 1"),
      std::string::npos);
  EXPECT_NE(metrics.find(
                "streamrel_backpressure_rejects_total{lane=\"interactive\"} 0"),
            std::string::npos);

  // A line that cannot parse gets its parse error, not `overloaded`.
  const WireResponse garbage = service.reject_overloaded("{nope");
  EXPECT_FALSE(garbage.ok);
  EXPECT_EQ(garbage.error_code, "parse_error");
}

TEST(ServerPersist, StreamTransportCapsInflightRequests) {
  // With a zero-size worker pool... the inline path never queues, so the
  // cap is exercised through reject_overloaded by a saturated scheduler
  // instead: one worker, a queue of one, and a stream of batches.
  const ScratchStateDir scratch("inflight");
  const GeneratedNetwork g = test_instance();
  ServiceOptions options;
  options.start_workers = true;
  options.scheduler.workers = 1;
  ReliabilityService service(options);
  ASSERT_TRUE(service.execute(register_request(g)).ok);

  std::string script;
  for (int i = 0; i < 8; ++i) {
    WireRequest req = batch_request();
    req.id_json = std::to_string(i);
    script += serialize_wire_request(req);
    script += "\n";
  }
  std::istringstream in(script);
  std::ostringstream out;
  StreamServeOptions stream;
  stream.max_inflight = 1;
  const StreamServeResult result = serve_stream(service, in, out, stream);
  EXPECT_EQ(result.lines, 8u);
  EXPECT_EQ(result.responses, 8u);  // rejects are answered too
  // Every line got exactly one response; any line past the cap carries
  // the structured overloaded error.
  std::size_t overloaded = 0;
  std::istringstream replies(out.str());
  std::string line;
  while (std::getline(replies, line)) {
    if (line.find("\"overloaded\"") != std::string::npos) ++overloaded;
  }
  EXPECT_EQ(overloaded, result.backpressure_rejects);
}

}  // namespace
}  // namespace streamrel
