#include "sim/pool.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "sim/parallel.hpp"

namespace partree::sim {
namespace {

// Set for the lifetime of every pool worker thread: a nested parallel
// region from inside a worker runs inline instead of deadlocking on (or
// queueing behind) the region that is already in flight.
thread_local bool t_in_pool_worker = false;

}  // namespace

WorkerPool& WorkerPool::instance() {
  // Function-local static (not leaked): the destructor joins the workers
  // at static destruction, so sanitized binaries exit with no live
  // threads. Worker thread-locals (metrics shards, trace rings) retire
  // into the leaked obs registries, which outlive this object by design.
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() { shutdown(); }

std::size_t WorkerPool::chunk_for(std::size_t n, std::size_t k) noexcept {
  // Small enough that dynamic balancing and cancellation stay responsive
  // (~8 chunks per worker), large enough that cheap bodies do not fight
  // over the ticket counter one index at a time.
  return std::max<std::size_t>(1, n / (k * 8));
}

void WorkerPool::run(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t n_threads) {
  if (n == 0) return;
  const std::size_t k = resolve_thread_count(n, n_threads);

  const obs::ScopedTimer region_timer(obs::DurationMetric::kPoolRegionNs);
  obs::record_value(obs::ValueMetric::kPoolRegionItems, n);
  obs::gauge_max(obs::GaugeMetric::kPoolQueueDepthHwm, n);
  obs::gauge_max(obs::GaugeMetric::kPoolWorkersHwm, k);

  if (k == 1 || t_in_pool_worker) {
    // Serial (and nested-region) path: inline on the calling thread, in
    // index order, no pool involvement. Exceptions propagate directly --
    // nothing after the throwing item executes.
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }

  const std::uint64_t dispatch_t0 =
      obs::duration_metrics_enabled() ? obs::detail::monotonic_ns() : 0;
  std::unique_lock lock(mutex_);
  // One region at a time: a second top-level caller queues here until the
  // pool is idle again.
  cv_done_.wait(lock, [&] { return !active_ && !stop_; });
  if (dispatch_t0 != 0) {
    // Region-level queueing delay: how long this caller sat behind other
    // top-level regions (plus the lock handoff) before dispatching.
    obs::record_duration(obs::DurationMetric::kPoolDispatchWaitNs,
                         obs::detail::monotonic_ns() - dispatch_t0);
  }
  ensure_workers_locked(k);

  fn_ = &fn;
  n_ = n;
  const std::size_t forced = chunk_override_.load(std::memory_order_relaxed);
  chunk_ = forced != 0 ? forced : chunk_for(n, k);
  participants_ = k;
  running_ = k;
  next_.store(0, std::memory_order_relaxed);
  cancel_.store(false, std::memory_order_relaxed);
  error_ = nullptr;  // previous region fully quiesced; plain write is safe
  active_ = true;
  ++epoch_;
  cv_work_.notify_all();

  cv_done_.wait(lock, [&] { return running_ == 0; });
  active_ = false;
  fn_ = nullptr;
  // Workers wrote error_ under error_mutex_ strictly before their final
  // running_ decrement under mutex_, so this read is ordered.
  const std::exception_ptr err = error_;
  error_ = nullptr;
  lock.unlock();
  cv_done_.notify_all();  // wake any caller queued on !active_
  if (err) std::rethrow_exception(err);
}

void WorkerPool::ensure_workers_locked(std::size_t k) {
  workers_.reserve(k);
  while (workers_.size() < k) {
    const std::size_t w = workers_.size();
    // New workers see the pre-bump epoch, so the region being set up is
    // the first one they wait for.
    workers_.emplace_back(&WorkerPool::worker_main, this, w, epoch_);
  }
}

void WorkerPool::worker_main(std::size_t w, std::uint64_t seen_epoch) {
  t_in_pool_worker = true;
  // Idle gap between consecutive regions this worker ran; armed only
  // while duration metrics are on (a clock read per region dispatch).
  std::uint64_t idle_since =
      obs::duration_metrics_enabled() ? obs::detail::monotonic_ns() : 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    if (w >= participants_) continue;  // idle for this region
    if (idle_since != 0) {
      obs::record_duration(obs::DurationMetric::kPoolWorkerIdleNs,
                           obs::detail::monotonic_ns() - idle_since);
    }
    lock.unlock();
    execute_region(w);
    lock.lock();
    idle_since =
        obs::duration_metrics_enabled() ? obs::detail::monotonic_ns() : 0;
    if (--running_ == 0) cv_done_.notify_all();
  }
}

void WorkerPool::execute_region(std::size_t w) {
  // Timed on the worker thread: with tracing armed, each pool worker gets
  // its own lifetime span per region (and its own ring), so the timeline
  // shows one track per pool thread across back-to-back regions.
  const obs::ScopedTimer worker_timer(obs::DurationMetric::kPoolWorkerBusyNs);
  const std::function<void(std::size_t, std::size_t)>& fn = *fn_;
  const std::size_t n = n_;
  const std::size_t chunk = chunk_;
  while (!cancel_.load(std::memory_order_relaxed)) {
    const std::size_t begin =
        next_.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= n) break;
    const std::size_t end = begin + chunk < n ? begin + chunk : n;
    obs::record_value(obs::ValueMetric::kPoolChunkItems, end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      // Checked per item, not per chunk: once the cancel flag is visible
      // at most one in-flight item per worker still completes.
      if (cancel_.load(std::memory_order_relaxed)) break;
      try {
        fn(w, i);
      } catch (...) {
        std::lock_guard guard(error_mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
        cancel_.store(true, std::memory_order_relaxed);
      }
    }
  }
}

void WorkerPool::shutdown() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock lock(mutex_);
    cv_done_.wait(lock, [&] { return !active_; });
    if (workers_.empty()) return;
    stop_ = true;
    to_join.swap(workers_);
    cv_work_.notify_all();
  }
  for (std::thread& t : to_join) t.join();
  {
    std::lock_guard lock(mutex_);
    stop_ = false;  // next run() restarts lazily
  }
  cv_done_.notify_all();
}

std::size_t WorkerPool::started_workers() const {
  std::lock_guard lock(mutex_);
  return workers_.size();
}

}  // namespace partree::sim
