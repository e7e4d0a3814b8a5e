// Randomization + reallocation: the paper's stated future work.
//
// Section 5 closes with: "The question of utilizing reallocation together
// with randomization is an area for future study." This allocator is the
// natural candidate: oblivious random placement (Section 5.1) between
// reallocations, plus the A_R repack whenever the arrived volume since the
// last reallocation would exceed dN (the A_M trigger). Between repacks the
// randomized bound applies to the incremental volume only, so intuition
// says load <= L* + O(min(d, 3logN/loglogN)); the fw1 bench measures the
// actual curve against both pure-random and deterministic A_M.
#pragma once

#include "core/allocator.hpp"
#include "core/packing.hpp"
#include "tree/copy_set.hpp"
#include "util/rng.hpp"

namespace partree::core {

class RandomizedReallocAllocator : public Allocator {
 public:
  RandomizedReallocAllocator(tree::Topology topo, std::uint64_t d,
                             std::uint64_t seed);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::optional<std::vector<Migration>> maybe_reallocate(
      const MachineState& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;
  /// CopySet::check() on the last round's copies.
  [[nodiscard]] std::string debug_check_state() const override;

 private:
  tree::Topology topo_;
  std::uint64_t d_;
  std::uint64_t seed_;
  util::Rng rng_;
  tree::CopySet copies_;  // A_R's copies, rebuilt at each round
  PackScratch scratch_;   // repack buffers, recycled across rounds
  std::uint64_t arrived_since_realloc_ = 0;
  bool realloc_pending_ = false;
};

}  // namespace partree::core
