// Algorithm A_M (Section 4.1): the d-reallocation online algorithm.
//
// If d >= ceil((log N + 1)/2), reallocation buys nothing over greedy, so
// A_M runs A_G and never reallocates. Otherwise it places with A_B and
// reallocates all active tasks with A_R whenever the cumulative size of
// arrivals since the last reallocation reaches dN. Theorem 4.2: load <=
// min{d + 1, ceil((log N + 1)/2)} * L*. d = 0 degenerates to A_C.
//
// So A_M is A_B plus the trigger and A_R: it derives from BasicAllocator,
// whose copy stack and placement table it places with between rounds and
// repacks into at each round, and whose self-check audits both.
#pragma once

#include "core/basic.hpp"
#include "core/greedy.hpp"
#include "core/packing.hpp"

namespace partree::core {

/// Reallocation parameter: a finite d or the never-reallocate infinity.
struct ReallocParam {
  std::uint64_t d = 0;
  bool infinite = false;

  [[nodiscard]] static ReallocParam finite(std::uint64_t d) {
    return {d, false};
  }
  [[nodiscard]] static ReallocParam inf() { return {0, true}; }
};

class DReallocAllocator : public BasicAllocator {
 public:
  DReallocAllocator(tree::Topology topo, ReallocParam d);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  void on_departure(TaskId id, const MachineState& state) override;
  [[nodiscard]] std::optional<std::vector<Migration>> maybe_reallocate(
      const MachineState& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

  /// Whether this instance is in the pure-greedy regime.
  [[nodiscard]] bool greedy_regime() const noexcept {
    return greedy_.has_value();
  }

  // debug_corrupt_state and debug_check_state are A_B's: in the greedy
  // regime the copy stack stays empty, so both have nothing to act on.

 private:
  ReallocParam d_;
  std::optional<GreedyAllocator> greedy_;  // engaged in the greedy regime
  PackScratch scratch_;  // repack buffers, recycled across rounds
  std::uint64_t arrived_since_realloc_ = 0;
  bool realloc_pending_ = false;
};

}  // namespace partree::core
