// The oblivious randomized algorithm of Section 5.1 (no reallocation).
//
// A task of size 2^x is assigned to each of the N/2^x submachines of its
// size with equal probability, ignoring current loads. Theorem 5.1:
// E[max load] <= (3 log N / log log N + 1) * L*.
#pragma once

#include "core/allocator.hpp"
#include "util/rng.hpp"

namespace partree::core {

class RandomizedAllocator : public Allocator {
 public:
  RandomizedAllocator(tree::Topology topo, std::uint64_t seed);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::string name() const override { return "random"; }
  void reset() override;

 private:
  tree::Topology topo_;
  std::uint64_t seed_;
  util::Rng rng_;
};

}  // namespace partree::core
