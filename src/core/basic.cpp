#include "core/basic.hpp"

#include "util/assert.hpp"

namespace partree::core {

BasicAllocator::BasicAllocator(tree::Topology topo, tree::CopyFit fit)
    : copies_(topo, fit), fit_(fit) {}

std::string BasicAllocator::name() const {
  return fit_ == tree::CopyFit::kFirstFit ? "basic" : "basic-bestfit";
}

tree::NodeId BasicAllocator::place(const Task& task,
                                   const MachineState& state) {
  (void)state;
  const tree::CopyPlacement cp = copies_.place(task.size);
  const bool inserted = placements_.insert(task.id, cp);
  PARTREE_ASSERT(inserted, "duplicate arrival id in BasicAllocator");
  return cp.node;
}

void BasicAllocator::on_departure(TaskId id, const MachineState& state) {
  (void)state;
  const tree::CopyPlacement* cp = placements_.find(id);
  PARTREE_ASSERT(cp != nullptr, "departure of task unknown to BasicAllocator");
  copies_.remove(*cp);
  placements_.erase(id);
}

bool BasicAllocator::debug_corrupt_state() {
  if (copies_.copy_count() == 0) return false;
  copies_.debug_corrupt_used(copies_.used() + 1000);
  return true;
}

std::string BasicAllocator::debug_check_state() const {
  const std::string err = copies_.check();
  if (!err.empty()) return "copy_set: " + err;
  std::string unoccupied;
  std::uint64_t tracked = 0;
  placements_.for_each([&](TaskId id, const tree::CopyPlacement& cp) {
    if (unoccupied.empty() && !copies_.occupied(cp)) {
      unoccupied = "placement for task " + std::to_string(id) +
                   " is not occupied in the copy set";
    }
    tracked += copies_.topology().subtree_size(cp.node);
  });
  if (!unoccupied.empty()) return unoccupied;
  if (tracked != copies_.used()) {
    return "tracked placement sizes " + std::to_string(tracked) +
           " != copy set used " + std::to_string(copies_.used());
  }
  return {};
}

void BasicAllocator::reset() {
  copies_.clear();
  placements_.clear();
}

}  // namespace partree::core
