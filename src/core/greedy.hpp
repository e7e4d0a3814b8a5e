// Algorithm A_G (Section 4.1): greedy online allocation, no reallocation.
//
// An arriving task of size 2^x goes to the leftmost size-2^x submachine of
// minimum load. Theorem 4.1: load <= ceil((log N + 1)/2) * L*.
#pragma once

#include "core/allocator.hpp"

namespace partree::core {

/// Stateless: every query goes to the engine's LoadTree
/// (LoadTree::min_load_node), so departures and reset have nothing to do.
class GreedyAllocator : public Allocator {
 public:
  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::string name() const override { return "greedy"; }
  void reset() override {}
};

}  // namespace partree::core
