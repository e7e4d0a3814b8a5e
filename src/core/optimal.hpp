// Algorithm A_C (Section 3): the optimal 0-reallocation algorithm.
//
// Every arrival triggers the reallocation procedure A_R over all active
// tasks (including the new one). Theorem 3.1: the load after every event
// equals the optimal load ceil(S(sigma; tau)/N) <= L*.
//
// That is A_M at d = 0: its trigger fires on every arrival, and d = 0 never
// selects the greedy regime. So A_C is DReallocAllocator(d = 0) under its
// own name, with the same copy stack, placement table and self-check.
#pragma once

#include "core/drealloc.hpp"

namespace partree::core {

class OptimalReallocAllocator final : public DReallocAllocator {
 public:
  explicit OptimalReallocAllocator(tree::Topology topo)
      : DReallocAllocator(topo, ReallocParam::finite(0)) {}

  [[nodiscard]] std::string name() const override { return "optimal"; }
};

}  // namespace partree::core
