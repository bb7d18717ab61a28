#pragma once
// ExecContext — the execution substrate every solver runs on: a deadline
// plus cooperative cancellation token (polled at configuration-sweep
// granularity), the root of the structured telemetry tree, and a thread
// policy knob. Engines receive a (possibly null) pointer; a null context
// means "no deadline, no cancellation, default threads" and costs nothing
// on the hot paths.
//
// Copies of an ExecContext share the cancellation token (a request_cancel
// on any copy stops them all) but own their telemetry.

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "streamrel/util/telemetry.hpp"
#include "streamrel/util/trace.hpp"

namespace streamrel {

/// Outcome classification of a solve. Engines never throw on budget or
/// deadline exhaustion; they return the status so callers (notably
/// Method::kAuto) can fall back or degrade to bounds.
enum class SolveStatus {
  kExact,            ///< ran to completion; the value is exact (or, for
                     ///< sampling engines, the full requested sample size)
  kDeadlineExpired,  ///< stopped by the ExecContext deadline
  kBudgetExhausted,  ///< stopped by the engine's own work budget
  kCancelled,        ///< stopped by an explicit request_cancel()
  kMaskOverflow,     ///< an enumeration would need more than kMaxMaskBits
                     ///< links in one failure mask; pick another method
};

std::string_view to_string(SolveStatus status) noexcept;

/// Internal control-flow signal: a cooperative stop (deadline, cancel,
/// budget) observed deep inside a sweep. Thrown only OUTSIDE OpenMP
/// parallel regions; every public entry point catches it and converts it
/// into a SolveStatus — it never escapes the library API.
struct ExecInterrupted {
  SolveStatus status;
};

class ExecContext {
 public:
  /// Sweeps poll should_stop() every kPollStride configurations — cheap
  /// enough to be invisible, frequent enough to honor a deadline within
  /// milliseconds.
  static constexpr std::uint64_t kPollStride = 1024;

  ExecContext() = default;

  static ExecContext with_deadline_ms(double ms) {
    ExecContext ctx;
    ctx.set_deadline_ms(ms);
    return ctx;
  }

  /// Budgets of a year or more mean no deadline: converting them to a
  /// steady_clock time point would overflow.
  static constexpr double kNoDeadlineMs = 3.2e10;

  /// Sets the deadline `ms` milliseconds from now (clamped at 0). A
  /// non-finite `ms`, or one of kNoDeadlineMs or more, clears it instead.
  void set_deadline_ms(double ms) {
    has_deadline_ = std::isfinite(ms) && ms < kNoDeadlineMs;
    if (!has_deadline_) return;
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       ms > 0.0 ? ms : 0.0));
  }

  bool has_deadline() const noexcept { return has_deadline_; }

  /// Milliseconds until the deadline (negative when expired); +inf when
  /// no deadline is set.
  double remaining_ms() const {
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double, std::milli>(deadline_ - Clock::now())
        .count();
  }

  /// Thread-safe; shared with every copy of this context.
  void request_cancel() noexcept {
    cancel_->store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const noexcept {
    return cancel_->load(std::memory_order_relaxed);
  }

  /// The cooperative stop predicate. Reads an atomic always and the clock
  /// only when a deadline is set.
  bool should_stop() const {
    if (cancel_requested()) return true;
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// Why should_stop() is true (kExact when it is not). Cancellation wins
  /// over the deadline when both hold.
  SolveStatus stop_status() const {
    if (cancel_requested()) return SolveStatus::kCancelled;
    if (has_deadline_ && Clock::now() >= deadline_) {
      return SolveStatus::kDeadlineExpired;
    }
    return SolveStatus::kExact;
  }

  /// Throws ExecInterrupted when should_stop(). Must only be called
  /// outside OpenMP parallel regions.
  void check() const {
    const SolveStatus status = stop_status();
    if (status != SolveStatus::kExact) throw ExecInterrupted{status};
  }

  /// Thread-policy knob: cap on OpenMP threads (0 = library default) used
  /// by the parallel sweeps. Shard geometry is fixed per instance, so
  /// telemetry counters do not depend on this value.
  int max_threads = 0;

  /// The cap resolved against the OpenMP runtime (always >= 1; 1 when
  /// compiled without OpenMP).
  int resolved_threads() const noexcept;

  /// Root of the telemetry tree for everything executed under this
  /// context. Engines merge their per-solve trees in here.
  Telemetry telemetry;

  /// Optional progress/ETA sink, shared with every copy of this context
  /// (like the cancellation token). Engines feed it visited counts from
  /// the same kPollStride poll sites that honor the deadline; null costs
  /// one pointer check per poll.
  std::shared_ptr<ProgressReporter> progress;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::shared_ptr<std::atomic<bool>> cancel_ =
      std::make_shared<std::atomic<bool>>(false);
};

/// Helper for the sweeps: resolves a nullable context's thread cap.
int exec_resolved_threads(const ExecContext* ctx) noexcept;

/// Helper for the sweeps: the progress reporter of a nullable context
/// (nullptr when absent), for constructing a ProgressMarker per loop.
inline ProgressReporter* exec_progress(const ExecContext* ctx) noexcept {
  return ctx ? ctx->progress.get() : nullptr;
}

}  // namespace streamrel
