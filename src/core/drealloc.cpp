#include "core/drealloc.hpp"

#include "core/packing.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::core {

DReallocAllocator::DReallocAllocator(tree::Topology topo, ReallocParam d)
    : topo_(topo), d_(d), copies_(topo) {
  const std::uint64_t greedy_factor =
      util::ceil_div(topo_.height() + std::uint64_t{1}, 2);
  if (d_.infinite || d_.d >= greedy_factor) {
    greedy_.emplace();
  }
}

tree::NodeId DReallocAllocator::place(const Task& task,
                                      const MachineState& state) {
  if (greedy_) return greedy_->place(task, state);
  // Reallocation fires at the arrival that would push the A_B-handled
  // volume past dN; the triggering task is part of the repack, so the
  // volume A_B ever handles between reallocations stays <= dN -- exactly
  // the accounting of Theorem 4.2 (and the Figure 1 example: with d = 1,
  // N = 4, the repack happens when t5 arrives, yielding load 1).
  if (arrived_since_realloc_ + task.size > d_.d * topo_.n_leaves()) {
    realloc_pending_ = true;
  } else {
    arrived_since_realloc_ += task.size;
  }
  const tree::CopyPlacement cp = copies_.place(task.size);
  const bool inserted = placements_.emplace(task.id, cp).second;
  PARTREE_ASSERT(inserted, "duplicate arrival id in DReallocAllocator");
  return cp.node;
}

void DReallocAllocator::on_departure(TaskId id, const MachineState& state) {
  (void)state;
  if (greedy_) return;
  const auto it = placements_.find(id);
  PARTREE_ASSERT(it != placements_.end(),
                 "departure of task unknown to DReallocAllocator");
  copies_.remove(it->second);
  placements_.erase(it);
}

bool DReallocAllocator::debug_corrupt_state() {
  if (greedy_ || copies_.copy_count() == 0) return false;
  copies_.debug_corrupt_used(copies_.used() + 1000);
  return true;
}

std::string DReallocAllocator::debug_check_state() const {
  if (greedy_) return {};
  const std::string err = copies_.check();
  if (!err.empty()) return "copy_set: " + err;
  // The repack path packs straight into copies_ (no second placement
  // replay in release), so the debug net audits what the replay used to
  // assert: every tracked placement is really occupied in the copy set
  // and the tracked sizes account for every occupied PE.
  std::uint64_t tracked = 0;
  for (const auto& [id, cp] : placements_) {
    if (!copies_.occupied(cp)) {
      return "placement for task " + std::to_string(id) +
             " is not occupied in the copy set";
    }
    tracked += topo_.subtree_size(cp.node);
  }
  if (tracked != copies_.used()) {
    return "tracked placement sizes " + std::to_string(tracked) +
           " != copy set used " + std::to_string(copies_.used());
  }
  return {};
}

std::optional<std::vector<Migration>> DReallocAllocator::maybe_reallocate(
    const MachineState& state) {
  if (greedy_) return std::nullopt;
  if (!realloc_pending_) return std::nullopt;
  realloc_pending_ = false;

  // Pack directly into our own copies_ -- the bucketed pass reproduces
  // the A_R order exactly, so no separate plan + replay is needed; the
  // engine's debug_checks net (debug_check_state above) audits the
  // resulting placement map instead.
  repack_into(state, copies_, scratch_);
  placements_.clear();
  for (const PackedTask& p : scratch_.packed) {
    placements_.emplace(p.id, p.placement);
  }
  arrived_since_realloc_ = 0;
  ++reallocations_;
  return std::optional<std::vector<Migration>>(
      std::in_place, scratch_.migrations.begin(), scratch_.migrations.end());
}

std::string DReallocAllocator::name() const {
  if (d_.infinite) return "dmix(d=inf)";
  return "dmix(d=" + std::to_string(d_.d) + ")";
}

void DReallocAllocator::reset() {
  copies_.clear();
  placements_.clear();
  arrived_since_realloc_ = 0;
  realloc_pending_ = false;
  reallocations_ = 0;
}

}  // namespace partree::core
