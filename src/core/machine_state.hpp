// Ground-truth machine state owned by the simulation engine.
//
// Allocators receive `const MachineState&` and return decisions (a node for
// an arrival, a migration list for a reallocation); the engine applies them
// here. Every mutation validates the model invariants so a buggy allocator
// fails loudly rather than producing plausible-looking numbers.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/task.hpp"
#include "core/task_table.hpp"
#include "tree/load_tree.hpp"
#include "tree/topology.hpp"

namespace partree::core {

/// A task move performed during a reallocation.
struct Migration {
  TaskId id = kInvalidTask;
  tree::NodeId from = tree::kInvalidNode;
  tree::NodeId to = tree::kInvalidNode;

  friend bool operator==(const Migration&, const Migration&) = default;
};

/// A currently-active task and where it lives.
struct ActiveTask {
  Task task;
  tree::NodeId node = tree::kInvalidNode;
};

class MachineState {
 public:
  explicit MachineState(tree::Topology topo);

  [[nodiscard]] const tree::Topology& topology() const noexcept {
    return topo_;
  }
  [[nodiscard]] std::uint64_t n_pes() const noexcept {
    return topo_.n_leaves();
  }

  /// Places an arriving task on the submachine rooted at `node`.
  /// Validates: fresh id, size matches the node's subtree, node in range.
  void place(const Task& task, tree::NodeId node);

  /// Removes an active task; returns where it was placed.
  tree::NodeId remove(TaskId id);

  /// Applies a reallocation: every migration must name an active task, its
  /// current node, and a different, correctly-sized destination -- a
  /// self-move (from == to) aborts, since a plan lists only the tasks
  /// that move. Takes a span so planners can hand over any contiguous
  /// migration buffer without copying into a vector first.
  void migrate(std::span<const Migration> migrations);
  void migrate(std::initializer_list<Migration> migrations) {
    migrate(std::span<const Migration>(migrations.begin(),
                                       migrations.size()));
  }

  [[nodiscard]] bool is_active(TaskId id) const {
    return index_.find(id) != nullptr;
  }
  [[nodiscard]] const ActiveTask& active_task(TaskId id) const;
  [[nodiscard]] std::size_t active_count() const noexcept {
    return tasks_.size();
  }

  /// All active tasks (unordered).
  [[nodiscard]] std::vector<ActiveTask> active_tasks() const {
    return tasks_;
  }

  /// Visits every active task (unordered) without materializing a
  /// vector -- the repack planner's bucketing pass runs on every
  /// reallocation round, so the O(active) allocation matters there.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (const ActiveTask& at : tasks_) fn(at);
  }

  /// Current maximum PE load (the paper's L_A(sigma; tau)). O(1).
  [[nodiscard]] std::uint64_t max_load() const noexcept {
    return loads_.max_load();
  }

  /// Cumulative size of active tasks, S(sigma; tau). O(1).
  [[nodiscard]] std::uint64_t active_size() const noexcept {
    return loads_.total_active_size();
  }

  /// Largest active size seen so far; ceil(peak/N) is the running L*.
  [[nodiscard]] std::uint64_t peak_active_size() const noexcept {
    return peak_active_size_;
  }

  /// Running optimal load: ceil(peak_active_size / N), minimum 0.
  [[nodiscard]] std::uint64_t optimal_load() const noexcept;

  /// Read access to the load structure (for greedy queries etc.).
  [[nodiscard]] const tree::LoadTree& loads() const noexcept { return loads_; }

  /// Per-PE loads snapshot. O(N).
  [[nodiscard]] std::vector<std::uint64_t> pe_loads() const {
    return loads_.pe_loads();
  }

  /// Canonical 64-bit state digest: the active-task set (id, size, node)
  /// folded commutatively -- a task's position in the dense array depends
  /// on which tasks left before it, so the digest must not depend on it --
  /// mixed with the machine geometry and the maintained load aggregates.
  /// Two states digest equal iff they hold the same tasks at the same
  /// nodes with consistent accounting; detsim uses this as its per-epoch
  /// equivalence oracle. O(active).
  [[nodiscard]] std::uint64_t digest() const;

  /// TEST-ONLY fault injection: forwards to LoadTree::debug_corrupt_add on
  /// the owned load structure, leaving aggregates stale on purpose so the
  /// engine's debug_checks net (and the InvariantViolation it throws) can
  /// be exercised end to end. Never call outside tests/fault injection.
  void debug_corrupt_loads(tree::NodeId v, std::uint64_t count) {
    loads_.debug_corrupt_add(v, count);
  }

  /// TEST-ONLY fault injection: drops the last task of the dense task
  /// array WITHOUT releasing its load, so the task-count/size invariants
  /// break. Returns false (and does nothing) when no task is active.
  bool debug_corrupt_drop_active();

 private:
  tree::Topology topo_;
  tree::LoadTree loads_;
  // The active tasks in no particular order (remove() swap-removes), and
  // each one's position in tasks_ by id.
  std::vector<ActiveTask> tasks_;
  TaskTable<std::size_t> index_;
  std::uint64_t peak_active_size_ = 0;
};

}  // namespace partree::core
