#pragma once
// RequestScheduler — the daemon's admission and worker layer: a fixed
// thread pool fed by two lanes (interactive what-ifs vs. bulk sweeps)
// with deadline-sorted dispatch and queue-time estimation.
//
// The design follows the deadline-driven piece picker of streaming
// BitTorrent clients: work is ordered by absolute deadline (earliest
// first, no-deadline work last, FIFO within ties), the bulk lane is
// capped to a share of the pool so sweeps cannot starve point queries,
// and an EWMA of per-lane service time turns queue depth into an
// expected wait — the signal the service layer uses to shed requests
// whose deadline the queue alone would already blow.
//
// Shedding POLICY lives in the service layer (server/service.hpp); the
// scheduler only refuses work when a lane's queue is full (submit()
// returns false) and reports its estimates.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "streamrel/api/wire.hpp"
#include "streamrel/util/telemetry.hpp"

namespace streamrel {

struct SchedulerOptions {
  int workers = 4;     ///< pool size (clamped to >= 1)
  /// Bulk-lane cap divisor: at most max(1, workers / bulk_share) workers
  /// run bulk jobs at once.
  int bulk_share = 2;
  /// Per-lane queue bound; submit() refuses beyond it (back-pressure).
  std::size_t max_queue = 256;
  /// Smoothing factor of the per-lane service-time EWMA.
  double ewma_alpha = 0.2;
};

/// Point-in-time per-lane statistics for the stats verb and the bench.
struct LaneSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   ///< refused at submit (queue full)
  std::size_t queued = 0;       ///< waiting now
  std::size_t running = 0;      ///< executing now
  double ewma_service_ms = 0.0;
  /// estimate_queue_ms at snapshot time: the expected wait the service
  /// layer sheds against (queued * ewma / effective workers).
  double queue_estimate_ms = 0.0;
  double queue_p50_ms = 0.0;    ///< time-in-queue percentiles
  double queue_p95_ms = 0.0;
  double queue_p99_ms = 0.0;
  double service_p50_ms = 0.0;  ///< execution-time percentiles
  double service_p95_ms = 0.0;
  double service_p99_ms = 0.0;
};

class RequestScheduler {
 public:
  using Clock = std::chrono::steady_clock;
  /// A job receives the time it waited in the queue, in milliseconds.
  using Job = std::function<void(double queue_ms)>;
  /// The deadline of work that has none: it sorts after every deadline.
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  explicit RequestScheduler(const SchedulerOptions& options = {});
  ~RequestScheduler();
  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues a job under the request's absolute deadline (kNoDeadline
  /// sorts last). Returns false — and runs nothing — when the lane's
  /// queue is full.
  bool submit(WireLane lane, Clock::time_point deadline, Job job);

  /// Expected queue wait for NEW work on `lane` right now:
  /// queued * ewma_service / effective_workers. Zero until the first
  /// completion primes the EWMA.
  double estimate_queue_ms(WireLane lane) const;

  LaneSnapshot lane_snapshot(WireLane lane) const;

  /// Blocks until both queues are empty and no job is running.
  void drain();

  /// drain(), then stops and joins the workers. Idempotent; the
  /// destructor calls it.
  void stop();

  int workers() const noexcept { return workers_; }

 private:
  struct Entry {
    Clock::time_point deadline = kNoDeadline;
    std::uint64_t seq = 0;
    Clock::time_point enqueued{};
    Job job;
  };

  struct Lane {
    std::vector<Entry> queue;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::size_t running = 0;
    double ewma_service_ms = 0.0;
    bool ewma_primed = false;
    LatencyHistogram queue_hist;
    LatencyHistogram service_hist;
  };

  void worker_loop();
  /// Picks the earliest-deadline entry among eligible lanes; returns
  /// false when nothing is runnable. Caller holds the lock.
  bool pick(Entry* out, WireLane* out_lane);
  std::size_t bulk_cap() const noexcept;
  Lane& lane_of(WireLane lane) { return lanes_[static_cast<int>(lane)]; }
  const Lane& lane_of(WireLane lane) const {
    return lanes_[static_cast<int>(lane)];
  }

  const int workers_;
  const int bulk_share_;
  const std::size_t max_queue_;
  const double ewma_alpha_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait here
  std::condition_variable drain_cv_;  ///< drain() waits here
  Lane lanes_[2];
  std::uint64_t next_seq_ = 0;
  std::size_t active_ = 0;  ///< jobs executing (both lanes)
  bool stopping_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace streamrel
