#include "core/sequence.hpp"

#include <algorithm>

#include "core/task_table.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::core {
namespace {

/// Replays `events` and calls visit(current) with the cumulative active
/// size after each one.
template <typename Visit>
void for_each_active_size(std::span<const Event> events, Visit&& visit) {
  TaskTable<std::uint64_t> sizes;
  std::uint64_t current = 0;
  for (const Event& e : events) {
    if (e.kind == EventKind::kArrival) {
      sizes.insert(e.task.id, e.task.size);
      current += e.task.size;
    } else {
      const std::uint64_t* size = sizes.find(e.task.id);
      PARTREE_ASSERT(size != nullptr, "departure of unknown task");
      current -= *size;
      sizes.erase(e.task.id);
    }
    visit(current);
  }
}

}  // namespace

TaskSequence::TaskSequence(std::vector<Event> events)
    : events_(std::move(events)) {
  for (const Event& e : events_) {
    if (e.kind == EventKind::kArrival) {
      next_id_ = std::max(next_id_, e.task.id + 1);
    }
  }
}

TaskId TaskSequence::arrive(std::uint64_t size) {
  const TaskId id = next_id_++;
  events_.push_back(Event::arrival(id, size));
  return id;
}

void TaskSequence::arrive_as(TaskId id, std::uint64_t size) {
  events_.push_back(Event::arrival(id, size));
  next_id_ = std::max(next_id_, id + 1);
}

void TaskSequence::depart(TaskId id) {
  events_.push_back(Event::departure(id));
}

std::uint64_t TaskSequence::total_arrival_size() const {
  std::uint64_t total = 0;
  for (const Event& e : events_) {
    if (e.kind == EventKind::kArrival) total += e.task.size;
  }
  return total;
}

std::uint64_t TaskSequence::peak_active_size() const {
  std::uint64_t peak = 0;
  for_each_active_size(events_, [&peak](std::uint64_t current) {
    peak = std::max(peak, current);
  });
  return peak;
}

std::uint64_t TaskSequence::active_size_after(std::size_t tau) const {
  PARTREE_ASSERT(tau <= events_.size(), "tau beyond sequence length");
  std::uint64_t after = 0;
  for_each_active_size(std::span<const Event>(events_).first(tau),
                       [&after](std::uint64_t current) { after = current; });
  return after;
}

std::uint64_t TaskSequence::optimal_load(std::uint64_t n_pes) const {
  if (events_.empty()) return 0;
  return util::ceil_div(peak_active_size(), n_pes);
}

std::size_t TaskSequence::arrival_count() const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), [](const Event& e) {
        return e.kind == EventKind::kArrival;
      }));
}

std::string TaskSequence::validate(std::uint64_t n_pes) const {
  // One entry per id that has arrived: true while it is active, false
  // once it has departed, so a departed id still rejects a re-arrival.
  TaskTable<bool> active;
  active.reserve(arrival_count());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.task.id == kInvalidTask) {
      return "event " + std::to_string(i) + ": task id " +
             std::to_string(e.task.id) + " is reserved (kInvalidTask)";
    }
    if (e.kind == EventKind::kArrival) {
      if (!valid_task_size(e.task.size, n_pes)) {
        return "event " + std::to_string(i) + ": task " +
               std::to_string(e.task.id) + " has invalid size " +
               std::to_string(e.task.size);
      }
      if (!active.insert(e.task.id, true)) {
        return "event " + std::to_string(i) + ": duplicate arrival of task " +
               std::to_string(e.task.id);
      }
    } else {
      bool* is_active = active.find(e.task.id);
      if (is_active == nullptr || !*is_active) {
        return "event " + std::to_string(i) + ": departure of task " +
               std::to_string(e.task.id) + " which is not active";
      }
      *is_active = false;
    }
  }
  return "";
}

void TaskSequence::append(const TaskSequence& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  next_id_ = std::max(next_id_, other.next_id_);
}

TaskSequence figure1_sequence() {
  TaskSequence seq;
  const TaskId t1 = seq.arrive(1);
  const TaskId t2 = seq.arrive(1);
  const TaskId t3 = seq.arrive(1);
  const TaskId t4 = seq.arrive(1);
  (void)t1;
  (void)t3;
  seq.depart(t2);
  seq.depart(t4);
  seq.arrive(2);  // t5
  return seq;
}

}  // namespace partree::core
