#include "core/greedy.hpp"

namespace partree::core {

tree::NodeId GreedyAllocator::place(const Task& task,
                                    const MachineState& state) {
  return state.loads().min_load_node(task.size);
}

}  // namespace partree::core
