#include "core/rand_realloc.hpp"

#include "core/packing.hpp"

namespace partree::core {

RandomizedReallocAllocator::RandomizedReallocAllocator(tree::Topology topo,
                                                       std::uint64_t d,
                                                       std::uint64_t seed)
    : topo_(topo), d_(d), seed_(seed), rng_(seed), copies_(topo) {}

tree::NodeId RandomizedReallocAllocator::place(const Task& task,
                                               const MachineState& state) {
  (void)state;
  // Same trigger discipline as A_M: the arrival that would push the
  // randomized-placed volume past dN is folded into the repack.
  if (arrived_since_realloc_ + task.size > d_ * topo_.n_leaves()) {
    realloc_pending_ = true;
  } else {
    arrived_since_realloc_ += task.size;
  }
  const std::uint64_t count = topo_.count_for_size(task.size);
  return topo_.node_for(task.size, rng_.below(count));
}

std::optional<std::vector<Migration>>
RandomizedReallocAllocator::maybe_reallocate(const MachineState& state) {
  if (!realloc_pending_) return std::nullopt;
  realloc_pending_ = false;
  arrived_since_realloc_ = 0;
  // The same round as A_M's: the CopySet and buffers persist across
  // rounds, so the only steady-state allocation is the returned list.
  repack_into(state, copies_, scratch_);
  return std::optional<std::vector<Migration>>(
      std::in_place, scratch_.migrations.begin(), scratch_.migrations.end());
}

std::string RandomizedReallocAllocator::debug_check_state() const {
  const std::string err = copies_.check();
  return err.empty() ? err : "copy_set: " + err;
}

std::string RandomizedReallocAllocator::name() const {
  return "randmix(d=" + std::to_string(d_) + ")";
}

void RandomizedReallocAllocator::reset() {
  rng_ = util::Rng(seed_);
  arrived_since_realloc_ = 0;
  realloc_pending_ = false;
}

}  // namespace partree::core
