// Independent oracle for a reallocation round's plan. It packs the active
// set with pack_tasks and diffs each packed node against where
// MachineState says the task sits now, so it shares none of the
// planner's mover bookkeeping: a plan that drops, adds or reorders a
// mover differs from it.
#pragma once

#include <vector>

#include "core/machine_state.hpp"
#include "core/packing.hpp"

namespace partree::core {

/// The {id, current node, pack_tasks node} triples whose nodes differ,
/// in pack_tasks order.
inline std::vector<Migration> delta_of_pack_tasks(const MachineState& state) {
  std::vector<Migration> plan;
  for (const PackedTask& p :
       pack_tasks(state.topology(), state.active_tasks())) {
    const tree::NodeId from = state.active_task(p.id).node;
    if (p.placement.node != from) {
      plan.push_back({p.id, from, p.placement.node});
    }
  }
  return plan;
}

}  // namespace partree::core
