#include "core/machine_state.hpp"

#include <algorithm>

#include "obs/trace.hpp"
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
  const bool inserted = active_.emplace(task.id, ActiveTask{task, node}).second;
  PARTREE_ASSERT(inserted, "task id already active");
  loads_.assign(node);
  peak_active_size_ = std::max(peak_active_size_, loads_.total_active_size());
}

tree::NodeId MachineState::remove(TaskId id) {
  const auto it = active_.find(id);
  PARTREE_ASSERT(it != active_.end(), "removing task that is not active");
  const tree::NodeId node = it->second.node;
  loads_.release(node);
  active_.erase(it);
  return node;
}

void MachineState::migrate(std::span<const Migration> migrations) {
  for (const Migration& m : migrations) {
    const auto it = active_.find(m.id);
    PARTREE_ASSERT(it != active_.end(), "migrating task that is not active");
    PARTREE_ASSERT(it->second.node == m.from,
                   "migration 'from' does not match current placement");
    PARTREE_ASSERT(m.from != m.to, "migration is a self-move");
    PARTREE_ASSERT(topo_.valid(m.to), "migration target out of range");
    PARTREE_ASSERT(topo_.subtree_size(m.to) == it->second.task.size,
                   "migration target size mismatch");
    loads_.release(m.from);
    loads_.assign(m.to);
    it->second.node = m.to;
  }
  obs::emit_instant(obs::Instant::kMigrationBatch, migrations.size());
}

const ActiveTask& MachineState::active_task(TaskId id) const {
  const auto it = active_.find(id);
  PARTREE_ASSERT(it != active_.end(), "lookup of inactive task");
  return it->second;
}

std::vector<ActiveTask> MachineState::active_tasks() const {
  std::vector<ActiveTask> tasks;
  tasks.reserve(active_.size());
  for (const auto& [id, at] : active_) tasks.push_back(at);
  return tasks;
}

std::uint64_t MachineState::optimal_load() const noexcept {
  return peak_active_size_ == 0
             ? 0
             : util::ceil_div(peak_active_size_, topo_.n_leaves());
}

std::uint64_t MachineState::digest() const {
  std::uint64_t task_set = 0;
  for (const auto& [id, at] : active_) {
    task_set = util::commutative_add(
        task_set, util::element_digest(id, at.task.size, at.node));
  }
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  fnv.mix(active_.size());
  fnv.mix(task_set);
  fnv.mix(loads_.max_load());
  fnv.mix(loads_.total_active_size());
  fnv.mix(peak_active_size_);
  return fnv.value();
}

bool MachineState::debug_corrupt_drop_active() {
  if (active_.empty()) return false;
  active_.erase(active_.begin());  // load deliberately left assigned
  return true;
}

}  // namespace partree::core
