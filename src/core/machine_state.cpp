#include "core/machine_state.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/digest.hpp"
#include "util/math.hpp"

namespace partree::core {

MachineState::MachineState(tree::Topology topo)
    : topo_(topo), loads_(topo) {}

void MachineState::place(const Task& task, tree::NodeId node) {
  PARTREE_ASSERT(task.id != kInvalidTask, "placing invalid task id");
  PARTREE_ASSERT(valid_task_size(task.size, topo_.n_leaves()),
                 "task size violates model");
  PARTREE_ASSERT(topo_.valid(node), "placement node out of range");
  PARTREE_ASSERT(topo_.subtree_size(node) == task.size,
                 "placement node size does not match task size");
  const bool inserted = index_.insert(task.id, tasks_.size());
  PARTREE_ASSERT(inserted, "task id already active");
  tasks_.push_back({task, node});
  loads_.assign(node);
  peak_active_size_ = std::max(peak_active_size_, loads_.total_active_size());
}

tree::NodeId MachineState::remove(TaskId id) {
  const std::size_t* found = index_.find(id);
  PARTREE_ASSERT(found != nullptr, "removing task that is not active");
  const std::size_t slot = *found;
  const tree::NodeId node = tasks_[slot].node;
  loads_.release(node);
  index_.erase(id);
  // Swap-remove: the last task fills the hole and its index entry follows.
  if (slot + 1 != tasks_.size()) {
    tasks_[slot] = tasks_.back();
    *index_.find(tasks_[slot].task.id) = slot;
  }
  tasks_.pop_back();
  return node;
}

void MachineState::migrate(std::span<const Migration> migrations) {
  for (const Migration& m : migrations) {
    const std::size_t* slot = index_.find(m.id);
    PARTREE_ASSERT(slot != nullptr, "migrating task that is not active");
    ActiveTask& at = tasks_[*slot];
    PARTREE_ASSERT(at.node == m.from,
                   "migration 'from' does not match current placement");
    PARTREE_ASSERT(m.from != m.to, "migration is a self-move");
    PARTREE_ASSERT(topo_.valid(m.to), "migration target out of range");
    PARTREE_ASSERT(topo_.subtree_size(m.to) == at.task.size,
                   "migration target size mismatch");
    loads_.release(m.from);
    loads_.assign(m.to);
    at.node = m.to;
  }
}

const ActiveTask& MachineState::active_task(TaskId id) const {
  const std::size_t* slot = index_.find(id);
  PARTREE_ASSERT(slot != nullptr, "lookup of inactive task");
  return tasks_[*slot];
}

std::uint64_t MachineState::optimal_load() const noexcept {
  return peak_active_size_ == 0
             ? 0
             : util::ceil_div(peak_active_size_, topo_.n_leaves());
}

std::uint64_t MachineState::digest() const {
  std::uint64_t task_set = 0;
  for (const ActiveTask& at : tasks_) {
    task_set = util::commutative_add(
        task_set, util::element_digest(at.task.id, at.task.size, at.node));
  }
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  fnv.mix(tasks_.size());
  fnv.mix(task_set);
  fnv.mix(loads_.max_load());
  fnv.mix(loads_.total_active_size());
  fnv.mix(peak_active_size_);
  return fnv.value();
}

bool MachineState::debug_corrupt_drop_active() {
  if (tasks_.empty()) return false;
  index_.erase(tasks_.back().task.id);
  tasks_.pop_back();  // load deliberately left assigned
  return true;
}

}  // namespace partree::core
