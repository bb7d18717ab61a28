#pragma once
// Public API versioning. STREAMREL_API_VERSION is a single monotonically
// increasing integer bumped on every breaking change to the installed
// surface (the headers under include/streamrel/). The dotted library
// version tracks the CMake project version.

#define STREAMREL_VERSION_MAJOR 1
#define STREAMREL_VERSION_MINOR 2
#define STREAMREL_VERSION_PATCH 0

/// Breaking-change counter of the installed header surface.
/// v4: removed the deprecated src/streamrel.hpp shim and the deprecated
/// compute_reliability(net, demand, options, ctx) overload; the maxflow
/// reference solvers (edmonds_karp.hpp, push_relabel.hpp) moved into the
/// installed tree; FlowNetwork::compile() / CompiledNetwork / NetworkView
/// joined the public graph API.
/// v5: removed the deprecated apply_churn(net, server, model) shim (use
/// churn_delta + apply_delta_in_place); the versioned wire schema
/// (api/wire.hpp) and the serving daemon (server/*.hpp) joined the
/// public surface.
/// v6: durable sessions — the binary serializers (graph/serialize.hpp,
/// util/binio.hpp) and the crash-safe session store (persist/store.hpp)
/// joined the public surface; the wire schema gained the persist and
/// restore verbs and the state_corrupt error code; ServiceOptions
/// gained state_dir/wal_compact_threshold/state_fsync and the stream
/// transports a per-connection in-flight cap (StreamServeOptions /
/// TcpServerOptions::max_inflight).
/// v7: one max-flow solver — DinicSolver is a plain class; the abstract
/// solver base, the algorithm enum with its factory and name lookup, and
/// the Edmonds–Karp and push–relabel solvers are gone, as are the
/// `algorithm` option fields and parameters and the ThroughputOptions,
/// PolynomialOptions and MulticastOptions structs. Wire lines longer
/// than kMaxWireLineBytes (api/wire.hpp) get one parse_error.
/// v8: one side-array sweep — FeasibilityMethod, SideSweepStrategy,
/// SideArrayOptions and BottleneckOptions::side are gone, as are the
/// `options` parameter of both side-array builders, the
/// maxflow_calls-pointer overload of build_side_array, the
/// pruned_decisions telemetry key and both pruned_decisions() accessors.
/// v9: one request path — RequestScheduler::submit takes an absolute
/// steady_clock deadline (kNoDeadline for none) and its Job receives the
/// measured queue wait; ExecContext::apply_deadline_budgets and the
/// extra_members parameter of render_solve_result are gone.
/// v10: certificate-closure side sweep — the BitSlabs class, the
/// lanes_certificate / lanes_connectivity /
/// lanes_popcount / engine_toggles telemetry keys, both engine_toggles()
/// accessors, IncrementalMaxFlow's ConfigResidual constructor with
/// sync_to / set_super_arc / set_target / support_mask / cut_mask /
/// alive_mask, and
/// ConfigResidual::SuperArc / super_arc() / num_super_arcs() are gone.
/// ExecContext::set_deadline_ms treats a non-finite budget, or one of
/// ExecContext::kNoDeadlineMs or more, as no deadline.
/// v11: side arrays in configuration order — build_side_array is the one
/// builder and returns the SlabMaskTable (now declared in
/// core/side_array.hpp), indexed by configuration. The second builder,
/// the table's rank-order accessors and header, the Gray-rank inverse
/// and the copied-subgraph header are gone (README lists them);
/// merge_sources moved to graph/flow_network.hpp.
/// v12: patched side arrays — build_side_array takes an optional
/// SidePrior (an earlier table of the side plus the links whose capacity
/// rose or fell) as a sixth parameter, so its function type changed;
/// a build adopts a reuse object's table only when its capacities are
/// unchanged (it patches it otherwise) and counts adopted and patched
/// sides in its telemetry.
/// v13: build work counted once — SideReuse::telemetry and
/// BatchOptions::parallel_accumulate are gone (max_threads = 1 gives the
/// serial batch); accumulate_bottleneck returns no telemetry, so an
/// answer carries only the work its own solve did, and the session
/// tree drops its `solves` subtree, `query_latency` histogram and
/// `query_ms` timer.
#define STREAMREL_API_VERSION 13

namespace streamrel {

/// The API version the library was built against, for runtime checks
/// against the headers a client compiled with.
constexpr int api_version() noexcept { return STREAMREL_API_VERSION; }

}  // namespace streamrel
