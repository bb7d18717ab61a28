// Compiled with -I include ONLY (see src/CMakeLists.txt): proves the
// installed public surface is self-contained — no public header may
// include an src/-internal header, or this TU fails to compile.

#include <streamrel/streamrel.hpp>

static_assert(STREAMREL_API_VERSION >= 13, "stale public surface");

namespace {

// Touch the load-bearing entry points so the umbrella cannot degrade
// into a header that parses but declares nothing.
[[maybe_unused]] streamrel::SolveReport (*const kSolve)(
    const streamrel::FlowNetwork&, const streamrel::FlowDemand&,
    const streamrel::SolveOptions&) = &streamrel::compute_reliability;

// The compiled-snapshot surface (API v4) and the library's one max-flow
// solver (a plain class since API v7) must be reachable from the
// installed tree alone.
[[maybe_unused]] std::shared_ptr<const streamrel::CompiledNetwork> (
    streamrel::FlowNetwork::*const kCompile)() const =
    &streamrel::FlowNetwork::compile;
[[maybe_unused]] streamrel::Capacity (streamrel::DinicSolver::*const kDinicSolve)(
    streamrel::ResidualGraph&, streamrel::NodeId, streamrel::NodeId,
    streamrel::Capacity) = &streamrel::DinicSolver::solve;

// The one side-array sweep (API v8) takes no options, returns the
// configuration-ordered table (API v11) and patches an optional prior
// table (API v12).
[[maybe_unused]] streamrel::SlabMaskTable (*const kSideArray)(
    const streamrel::SideProblem&, const streamrel::AssignmentSet&,
    streamrel::Capacity, streamrel::SideArrayStats*,
    const streamrel::ExecContext*,
    const streamrel::SidePrior*) = &streamrel::build_side_array;

// The wire schema (API v5) must be reachable from the installed tree.
[[maybe_unused]] streamrel::WireRequest (*const kParseWire)(
    std::string_view) = &streamrel::parse_wire_request;
static_assert(streamrel::kWireSchemaVersion >= 1, "wire schema regressed");

}  // namespace
