#pragma once
// StreamRel — reliability calculation of P2P streaming systems with
// bottleneck links (reproduction of Fujita, IPDPSW 2017).
//
// THE installed, versioned public surface (STREAMREL_API_VERSION in
// streamrel/version.hpp): pulls in the whole public API. Individual
// headers under include/streamrel/ can be included selectively; see
// README.md for the architecture map. Headers living under src/ are
// implementation details and may change without an API-version bump.

#include "streamrel/version.hpp"                  // IWYU pragma: export

#include "streamrel/api/wire.hpp"                 // IWYU pragma: export
#include "streamrel/core/accumulate.hpp"          // IWYU pragma: export
#include "streamrel/core/batch_evaluator.hpp"     // IWYU pragma: export
#include "streamrel/core/assignments.hpp"         // IWYU pragma: export
#include "streamrel/core/bottleneck_algorithm.hpp"// IWYU pragma: export
#include "streamrel/core/chain.hpp"               // IWYU pragma: export
#include "streamrel/core/engine.hpp"              // IWYU pragma: export
#include "streamrel/core/hybrid_mc.hpp"           // IWYU pragma: export
#include "streamrel/core/importance.hpp"          // IWYU pragma: export
#include "streamrel/core/polynomial_decomposition.hpp" // IWYU pragma: export
#include "streamrel/core/query_session.hpp"       // IWYU pragma: export
#include "streamrel/core/shared_risk.hpp"         // IWYU pragma: export
#include "streamrel/core/reliability_facade.hpp"  // IWYU pragma: export
#include "streamrel/core/side_array.hpp"          // IWYU pragma: export
#include "streamrel/cuts/bottleneck.hpp"          // IWYU pragma: export
#include "streamrel/cuts/chain_search.hpp"        // IWYU pragma: export
#include "streamrel/cuts/cut_enumeration.hpp"     // IWYU pragma: export
#include "streamrel/cuts/partition_search.hpp"    // IWYU pragma: export
#include "streamrel/graph/compiled.hpp"           // IWYU pragma: export
#include "streamrel/graph/delta.hpp"              // IWYU pragma: export
#include "streamrel/graph/dot_export.hpp"         // IWYU pragma: export
#include "streamrel/graph/flow_network.hpp"       // IWYU pragma: export
#include "streamrel/graph/generators.hpp"         // IWYU pragma: export
#include "streamrel/graph/graph_algos.hpp"        // IWYU pragma: export
#include "streamrel/graph/io.hpp"                 // IWYU pragma: export
#include "streamrel/graph/serialize.hpp"          // IWYU pragma: export
#include "streamrel/maxflow/dinic.hpp"            // IWYU pragma: export
#include "streamrel/maxflow/incremental_dinic.hpp"// IWYU pragma: export
#include "streamrel/maxflow/maxflow.hpp"          // IWYU pragma: export
#include "streamrel/obs/flight_recorder.hpp"      // IWYU pragma: export
#include "streamrel/obs/metrics.hpp"              // IWYU pragma: export
#include "streamrel/obs/request_log.hpp"          // IWYU pragma: export
#include "streamrel/persist/store.hpp"            // IWYU pragma: export
#include "streamrel/p2p/churn.hpp"                // IWYU pragma: export
#include "streamrel/p2p/mesh_builder.hpp"         // IWYU pragma: export
#include "streamrel/p2p/optimizer.hpp"            // IWYU pragma: export
#include "streamrel/p2p/overlay.hpp"              // IWYU pragma: export
#include "streamrel/p2p/scenario.hpp"             // IWYU pragma: export
#include "streamrel/p2p/tree_builder.hpp"         // IWYU pragma: export
#include "streamrel/reliability/bounds.hpp"       // IWYU pragma: export
#include "streamrel/reliability/factoring.hpp"    // IWYU pragma: export
#include "streamrel/reliability/frontier.hpp"     // IWYU pragma: export
#include "streamrel/reliability/monte_carlo.hpp"  // IWYU pragma: export
#include "streamrel/reliability/multicast.hpp"    // IWYU pragma: export
#include "streamrel/reliability/naive.hpp"        // IWYU pragma: export
#include "streamrel/reliability/node_failures.hpp"// IWYU pragma: export
#include "streamrel/reliability/polynomial.hpp"   // IWYU pragma: export
#include "streamrel/reliability/reductions.hpp"   // IWYU pragma: export
#include "streamrel/reliability/throughput.hpp"   // IWYU pragma: export
#include "streamrel/server/scheduler.hpp"         // IWYU pragma: export
#include "streamrel/server/service.hpp"           // IWYU pragma: export
#include "streamrel/server/session_registry.hpp"  // IWYU pragma: export
#include "streamrel/server/transport.hpp"         // IWYU pragma: export
#include "streamrel/sim/availability_sim.hpp"     // IWYU pragma: export
#include "streamrel/sim/churn_replay.hpp"         // IWYU pragma: export
#include "streamrel/sim/event_stream.hpp"         // IWYU pragma: export
#include "streamrel/sim/link_dynamics.hpp"        // IWYU pragma: export
#include "streamrel/util/binio.hpp"               // IWYU pragma: export
#include "streamrel/util/exec_context.hpp"        // IWYU pragma: export
#include "streamrel/util/json.hpp"                // IWYU pragma: export
#include "streamrel/util/telemetry.hpp"           // IWYU pragma: export
#include "streamrel/util/trace.hpp"               // IWYU pragma: export
