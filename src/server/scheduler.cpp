#include "streamrel/server/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace streamrel {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

RequestScheduler::RequestScheduler(const SchedulerOptions& options)
    : workers_(std::max(options.workers, 1)),
      bulk_share_(std::max(options.bulk_share, 1)),
      max_queue_(std::max<std::size_t>(options.max_queue, 1)),
      ewma_alpha_(options.ewma_alpha > 0.0 && options.ewma_alpha <= 1.0
                      ? options.ewma_alpha
                      : 0.2) {
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

RequestScheduler::~RequestScheduler() { stop(); }

std::size_t RequestScheduler::bulk_cap() const noexcept {
  return static_cast<std::size_t>(std::max(workers_ / bulk_share_, 1));
}

bool RequestScheduler::submit(WireLane lane, Clock::time_point deadline,
                              Job job) {
  Entry entry;
  entry.deadline = deadline;
  entry.enqueued = Clock::now();
  entry.job = std::move(job);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    Lane& l = lane_of(lane);
    if (stopping_ || l.queue.size() >= max_queue_) {
      l.rejected += 1;
      return false;
    }
    entry.seq = next_seq_++;
    l.submitted += 1;
    l.queue.push_back(std::move(entry));
  }
  work_cv_.notify_one();
  return true;
}

double RequestScheduler::estimate_queue_ms(WireLane lane) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Lane& l = lane_of(lane);
  if (!l.ewma_primed) return 0.0;
  const double effective =
      lane == WireLane::kBulk ? static_cast<double>(bulk_cap())
                              : static_cast<double>(workers_);
  return static_cast<double>(l.queue.size()) * l.ewma_service_ms / effective;
}

LaneSnapshot RequestScheduler::lane_snapshot(WireLane lane) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const Lane& l = lane_of(lane);
  LaneSnapshot snap;
  snap.submitted = l.submitted;
  snap.completed = l.completed;
  snap.rejected = l.rejected;
  snap.queued = l.queue.size();
  snap.running = l.running;
  snap.ewma_service_ms = l.ewma_service_ms;
  if (l.ewma_primed) {
    const double effective =
        lane == WireLane::kBulk ? static_cast<double>(bulk_cap())
                                : static_cast<double>(workers_);
    snap.queue_estimate_ms =
        static_cast<double>(l.queue.size()) * l.ewma_service_ms / effective;
  }
  snap.queue_p50_ms = l.queue_hist.percentile_ms(50.0);
  snap.queue_p95_ms = l.queue_hist.percentile_ms(95.0);
  snap.queue_p99_ms = l.queue_hist.percentile_ms(99.0);
  snap.service_p50_ms = l.service_hist.percentile_ms(50.0);
  snap.service_p95_ms = l.service_hist.percentile_ms(95.0);
  snap.service_p99_ms = l.service_hist.percentile_ms(99.0);
  return snap;
}

bool RequestScheduler::pick(Entry* out, WireLane* out_lane) {
  // Linear scan: queues are bounded (max_queue_) and small relative to
  // the cost of the jobs they hold.
  int best_lane = -1;
  std::size_t best_index = 0;
  for (int li = 0; li < 2; ++li) {
    Lane& l = lanes_[li];
    if (l.queue.empty()) continue;
    if (li == static_cast<int>(WireLane::kBulk) && l.running >= bulk_cap()) {
      continue;  // bulk lane at its worker-share cap
    }
    for (std::size_t i = 0; i < l.queue.size(); ++i) {
      if (best_lane < 0) {
        best_lane = li;
        best_index = i;
        continue;
      }
      const Entry& a = l.queue[i];
      const Entry& b = lanes_[best_lane].queue[best_index];
      if (a.deadline < b.deadline ||
          (a.deadline == b.deadline && a.seq < b.seq)) {
        best_lane = li;
        best_index = i;
      }
    }
  }
  if (best_lane < 0) return false;
  Lane& l = lanes_[best_lane];
  *out = std::move(l.queue[best_index]);
  l.queue.erase(l.queue.begin() +
                static_cast<std::vector<Entry>::difference_type>(best_index));
  *out_lane = static_cast<WireLane>(best_lane);
  return true;
}

void RequestScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Entry entry;
    WireLane lane = WireLane::kInteractive;
    while (!pick(&entry, &lane)) {
      if (stopping_) return;
      work_cv_.wait(lock);
    }
    Lane& l = lane_of(lane);
    l.running += 1;
    active_ += 1;
    const Clock::time_point start = Clock::now();
    const double queue_ms = ms_between(entry.enqueued, start);
    l.queue_hist.record_ms(queue_ms);
    lock.unlock();

    entry.job(queue_ms);

    const double service_ms = ms_between(start, Clock::now());
    lock.lock();
    l.running -= 1;
    active_ -= 1;
    l.completed += 1;
    l.service_hist.record_ms(service_ms);
    l.ewma_service_ms = l.ewma_primed
                            ? (1.0 - ewma_alpha_) * l.ewma_service_ms +
                                  ewma_alpha_ * service_ms
                            : service_ms;
    l.ewma_primed = true;
    // Finishing a bulk job may unblock a capped bulk queue; finishing
    // anything may complete a drain().
    if (active_ == 0 && lanes_[0].queue.empty() && lanes_[1].queue.empty()) {
      drain_cv_.notify_all();
    }
    work_cv_.notify_one();
  }
}

void RequestScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    return active_ == 0 && lanes_[0].queue.empty() && lanes_[1].queue.empty();
  });
}

void RequestScheduler::stop() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace streamrel
