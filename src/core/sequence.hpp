// Task sequences: ordered arrival/departure event lists plus the
// sequence-level quantities the paper defines (size s(sigma), cumulative
// active size S(sigma; tau), optimal load L*).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/event.hpp"

namespace partree::core {

class TaskSequence {
 public:
  TaskSequence() = default;
  explicit TaskSequence(std::vector<Event> events);

  /// Appends an arrival; returns the task id used.
  TaskId arrive(std::uint64_t size);
  /// Appends an arrival with a caller-chosen id (must be fresh).
  void arrive_as(TaskId id, std::uint64_t size);
  /// Appends a departure of a previously-arrived, still-active task.
  void depart(TaskId id);

  [[nodiscard]] std::span<const Event> events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] const Event& operator[](std::size_t i) const {
    return events_[i];
  }

  /// Total size of all arrivals (the S of Lemma 2).
  [[nodiscard]] std::uint64_t total_arrival_size() const;

  /// s(sigma): the maximum over time of the cumulative active size.
  [[nodiscard]] std::uint64_t peak_active_size() const;

  /// S(sigma; tau): cumulative active size after the first `tau` events.
  [[nodiscard]] std::uint64_t active_size_after(std::size_t tau) const;

  /// L* for a machine of n_pes PEs: ceil(s(sigma)/N) (0 for an empty
  /// sequence).
  [[nodiscard]] std::uint64_t optimal_load(std::uint64_t n_pes) const;

  /// Number of arrival events.
  [[nodiscard]] std::size_t arrival_count() const;

  /// Checks model invariants against an N-PE machine: power-of-two sizes
  /// <= N, unique arrival ids (an id is never reused, not even after it
  /// departs), no use of the reserved id kInvalidTask, departures only of
  /// active tasks. Returns an empty string when valid, else a description
  /// of the first violation.
  [[nodiscard]] std::string validate(std::uint64_t n_pes) const;

  /// Appends all events of `other` (ids must not collide).
  void append(const TaskSequence& other);

  friend bool operator==(const TaskSequence&, const TaskSequence&) = default;

 private:
  std::vector<Event> events_;
  TaskId next_id_ = 0;
};

/// The worked example sigma* of the paper's Figure 1 (N = 4):
/// t1..t4 of size 1 arrive, t2 and t4 depart, then t5 of size 2 arrives.
/// The greedy algorithm incurs load 2; a 1-reallocation algorithm achieves
/// the optimal load 1.
[[nodiscard]] TaskSequence figure1_sequence();

}  // namespace partree::core
