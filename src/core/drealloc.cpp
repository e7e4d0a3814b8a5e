#include "core/drealloc.hpp"

#include "core/packing.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::core {

DReallocAllocator::DReallocAllocator(tree::Topology topo, ReallocParam d)
    : BasicAllocator(topo), d_(d) {
  const std::uint64_t greedy_factor =
      util::ceil_div(topo.height() + std::uint64_t{1}, 2);
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
  if (arrived_since_realloc_ + task.size >
      d_.d * copies_.topology().n_leaves()) {
    realloc_pending_ = true;
  } else {
    arrived_since_realloc_ += task.size;
  }
  return BasicAllocator::place(task, state);
}

void DReallocAllocator::on_departure(TaskId id, const MachineState& state) {
  if (greedy_) return;
  BasicAllocator::on_departure(id, state);
}

std::optional<std::vector<Migration>> DReallocAllocator::maybe_reallocate(
    const MachineState& state) {
  if (greedy_) return std::nullopt;
  if (!realloc_pending_) return std::nullopt;
  realloc_pending_ = false;

  // Pack directly into A_B's copies -- the bucketed pass reproduces the
  // A_R order exactly, so no separate plan + replay is needed; the
  // engine's debug_checks net (BasicAllocator::debug_check_state) audits
  // the resulting placement table instead. A round repacks exactly the
  // active tasks, which A_B already tracks, so each entry is overwritten
  // in place.
  repack_into(state, copies_, scratch_);
  for (const PackedTask& p : scratch_.packed) {
    tree::CopyPlacement* cp = placements_.find(p.id);
    PARTREE_ASSERT(cp != nullptr, "repacked task unknown to BasicAllocator");
    *cp = p.placement;
  }
  arrived_since_realloc_ = 0;
  return std::optional<std::vector<Migration>>(
      std::in_place, scratch_.migrations.begin(), scratch_.migrations.end());
}

std::string DReallocAllocator::name() const {
  if (d_.infinite) return "dmix(d=inf)";
  return "dmix(d=" + std::to_string(d_.d) + ")";
}

void DReallocAllocator::reset() {
  BasicAllocator::reset();
  arrived_since_realloc_ = 0;
  realloc_pending_ = false;
}

}  // namespace partree::core
