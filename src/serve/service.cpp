#include "serve/service.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

#include "core/step.hpp"
#include "util/assert.hpp"

namespace partree::serve {

std::string_view service_error_name(ServiceErrorCode code) noexcept {
  switch (code) {
    case ServiceErrorCode::kStopped: return "stopped";
    case ServiceErrorCode::kBadRequest: return "bad_request";
  }
  return "unknown";
}

PartitionService::PartitionService(tree::Topology topo,
                                   core::AllocatorPtr allocator,
                                   ServiceOptions options)
    : topo_(topo),
      allocator_(std::move(allocator)),
      options_(options),
      state_(topo) {
  PARTREE_ASSERT(allocator_ != nullptr, "service needs an allocator");
  PARTREE_ASSERT(options_.queue_capacity >= 1, "queue capacity must be >= 1");
  PARTREE_ASSERT(options_.batch_size >= 1, "batch size must be >= 1");
  allocator_->reset();
  queue_.reserve(options_.queue_capacity);
  apply_thread_ = std::thread([this] { apply_loop(); });
}

PartitionService::~PartitionService() { stop(); }

ArrivalTicket PartitionService::submit_arrival(std::uint64_t size) {
  // Size validation happens before admission so an invalid request can
  // never reach the recorded sequence (which must replay through
  // Engine::run's sequence validation).
  if (!core::valid_task_size(size, topo_.n_leaves())) {
    throw ServiceError(ServiceErrorCode::kBadRequest,
                       "arrival size " + std::to_string(size) +
                           " is not a power of two in [1, " +
                           std::to_string(topo_.n_leaves()) + "]");
  }
  Admitted admitted = admit(core::EventKind::kArrival, kInvalidRequestId,
                            size);
  return ArrivalTicket{admitted.id, std::move(admitted.applied)};
}

std::future<Placement> PartitionService::submit_departure(core::TaskId id) {
  return admit(core::EventKind::kDeparture, id, 0).applied;
}

// Shared admission path: backpressure, id assignment (arrivals are
// numbered in admission order under the queue lock, which is what makes
// the recorded sequence's ids deterministic), and the queue push. The
// promise/future pair is made before the lock, so the critical section
// holds only what must be ordered with the apply thread.
PartitionService::Admitted PartitionService::admit(core::EventKind kind,
                                                   core::TaskId id,
                                                   std::uint64_t size) {
  Request req;
  req.kind = kind;
  Admitted admitted{kInvalidRequestId, req.promise.get_future()};

  std::unique_lock lock(mutex_);
  cv_space_.wait(lock, [this] {
    return queue_.size() < options_.queue_capacity || !accepting_;
  });
  if (!accepting_) {
    ++stats_.rejected;
    throw ServiceError(ServiceErrorCode::kStopped, "service is stopped");
  }

  req.task = kind == core::EventKind::kArrival ? core::Task{next_id_++, size}
                                               : core::Task{id, 0};
  admitted.id = req.task.id;
  queue_.push_back(std::move(req));
  ++stats_.admitted;
  lock.unlock();
  cv_work_.notify_one();
  return admitted;
}

void PartitionService::flush() {
  std::unique_lock lock(mutex_);
  const std::uint64_t target = stats_.admitted;
  cv_work_.notify_one();
  cv_applied_.wait(lock, [this, target] {
    return stats_.applied + stats_.failed >= target || stopped_;
  });
}

void PartitionService::drain() {
  std::unique_lock lock(mutex_);
  cv_work_.notify_one();
  cv_applied_.wait(lock, [this] {
    return (queue_.empty() &&
            stats_.applied + stats_.failed >= stats_.admitted) ||
           stopped_;
  });
}

void PartitionService::stop() {
  std::unique_lock lock(mutex_);
  if (stopping_) {
    // Another caller owns the join; wait until it has finished.
    cv_applied_.wait(lock, [this] { return stopped_; });
    return;
  }
  accepting_ = false;
  stopping_ = true;
  paused_ = false;  // stop() overrides a test pause: everything drains
  lock.unlock();
  cv_work_.notify_all();
  cv_space_.notify_all();  // parked submitters observe kStopped
  apply_thread_.join();
  lock.lock();
  stopped_ = true;
  lock.unlock();
  cv_applied_.notify_all();
}

ServiceStats PartitionService::stats() const {
  std::unique_lock lock(mutex_);
  return stats_;
}

std::size_t PartitionService::queue_depth() const {
  std::unique_lock lock(mutex_);
  return queue_.size();
}

const core::TaskSequence& PartitionService::recorded() const {
  std::unique_lock lock(mutex_);
  PARTREE_ASSERT(stopped_, "recorded() requires stop() first");
  return recorded_;
}

void PartitionService::pause_applying() {
  std::unique_lock lock(mutex_);
  paused_ = true;
}

void PartitionService::resume_applying() {
  {
    std::unique_lock lock(mutex_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

// The apply thread takes the lock once per batch: in one critical
// section it publishes the batch it just finished, waits for work, and
// takes the next batch.
void PartitionService::apply_loop() {
  std::uint64_t batch_index = 0;
  std::vector<Request> batch;
  batch.reserve(options_.queue_capacity);
  ServiceStats delta;  // the finished batch's counts; zero before the first
  std::unique_lock lock(mutex_);
  while (true) {
    // The batch's futures are complete, so flush()/drain() waiters that
    // see these counts find every future they cover ready.
    stats_.applied += delta.applied;
    stats_.failed += delta.failed;
    stats_.arrivals += delta.arrivals;
    stats_.departures += delta.departures;
    stats_.reallocation_count += delta.reallocation_count;
    stats_.migration_count += delta.migration_count;
    stats_.migrated_size += delta.migrated_size;
    stats_.max_load = std::max(stats_.max_load, delta.max_load);
    stats_.batches += delta.batches;
    stats_.max_batch = std::max(stats_.max_batch, delta.max_batch);
    cv_applied_.notify_all();
    cv_work_.wait(lock, [this] {
      if (stopping_) return true;  // drain (or exit) regardless of pause
      return !paused_ && !queue_.empty();
    });
    if (queue_.empty()) break;  // stopping, and everything is answered
    // Close the epoch batch at the cap or at whatever is queued right
    // now -- the apply thread never waits for a batch to fill, so
    // queue-empty is a natural flush point and flush()/drain() only
    // ever wait, never signal special markers.
    if (queue_.size() <= options_.batch_size) {
      batch.swap(queue_);
    } else {
      const auto end = queue_.begin() +
                       static_cast<std::ptrdiff_t>(options_.batch_size);
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(end));
      queue_.erase(queue_.begin(), end);
    }
    lock.unlock();
    cv_space_.notify_all();
    delta = apply_batch(batch, batch_index++);
    batch.clear();  // frees spent promises outside the lock
    lock.lock();
  }
  lock.unlock();

  // Everything admitted has been answered; publish the end-of-run facts.
  const std::uint64_t digest = state_.digest();
  lock.lock();
  stats_.final_digest = digest;
  stats_.placement_digest = placement_.value();
  stats_.optimal_load = state_.optimal_load();
  lock.unlock();
  cv_applied_.notify_all();
}

// Applies the whole batch, then completes its futures newest first: a
// client parked on its oldest future is woken once and finds its newer
// results in this batch ready. Returns the batch's stats delta for the
// caller to publish.
ServiceStats PartitionService::apply_batch(std::vector<Request>& batch,
                                           std::uint64_t batch_index) {
  ServiceStats delta;
  for (Request& req : batch) apply_one(req, batch_index, delta);
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    it->promise.set_value(it->placement);
  }
  delta.batches = 1;
  delta.max_batch = batch.size();
  return delta;
}

// One request through core::apply_event -- the same step Engine::run
// takes per event, so serve == serial replay holds by construction. The
// service only adds what is service-specific around it: rejecting
// departures of inactive tasks, recording, folding the placement digest
// as the engine does, and filling the placement that apply_batch
// delivers.
void PartitionService::apply_one(Request& req, std::uint64_t batch_index,
                                 ServiceStats& delta) {
  Placement& placement = req.placement;
  placement.id = req.task.id;
  placement.batch = batch_index;

  const bool arrival = req.kind == core::EventKind::kArrival;
  if (!arrival && !state_.is_active(req.task.id)) {
    // Fail THIS request only, in-band (Placement::ok = false, never
    // set_exception -- see the ServiceErrorCode comment in the header);
    // it is not recorded, so the recorded sequence stays replayable.
    ++delta.failed;
    placement.ok = false;
    placement.error = ServiceErrorCode::kBadRequest;
    return;
  }
  const std::uint64_t step_index = recorded_.size();
  if (arrival) {
    recorded_.arrive_as(req.task.id, req.task.size);
  } else {
    recorded_.depart(req.task.id);
  }
  const core::Event event{req.kind, req.task};
  const core::StepRecord step =
      core::apply_event(state_, *allocator_, event);
  core::fold_placement(placement_, step_index, event, step, state_);
  placement.size = step.size;
  placement.node = step.node;
  if (arrival) {
    ++delta.arrivals;
  } else {
    ++delta.departures;
  }
  if (step.reallocated) {
    ++delta.reallocation_count;
    delta.migration_count += step.migrations.size();
    delta.migrated_size += step.migrated_size;
  }

  placement.max_load = state_.max_load();
  delta.max_load = std::max(delta.max_load, placement.max_load);
  ++delta.applied;
}

}  // namespace partree::serve
