#include "core/step.hpp"

#include <utility>

namespace partree::core {
namespace {

StepRecord apply_arrival(MachineState& state, Allocator& allocator,
                         const Task& task) {
  StepRecord rec;
  rec.size = task.size;
  rec.node = allocator.place(task, state);
  state.place(task, rec.node);
  auto plan = allocator.maybe_reallocate(state);
  if (!plan) return rec;
  rec.reallocated = true;
  rec.migrations = std::move(*plan);
  for (const Migration& m : rec.migrations) {
    rec.migrated_size += state.active_task(m.id).task.size;
  }
  state.migrate(rec.migrations);
  // The round may have moved the task that triggered it.
  rec.node = state.active_task(task.id).node;
  return rec;
}

StepRecord apply_departure(MachineState& state, Allocator& allocator,
                           TaskId id) {
  StepRecord rec;
  rec.size = state.active_task(id).task.size;
  allocator.on_departure(id, state);
  rec.node = state.remove(id);
  return rec;
}

}  // namespace

StepRecord apply_event(MachineState& state, Allocator& allocator,
                       const Event& event) {
  if (event.kind == EventKind::kArrival) {
    return apply_arrival(state, allocator, event.task);
  }
  return apply_departure(state, allocator, event.task.id);
}

void fold_placement(util::Fnv& digest, std::uint64_t step, const Event& event,
                    const StepRecord& record, const MachineState& state) {
  if (event.kind != EventKind::kArrival) {
    digest.mix(record.node);
    return;
  }
  for (const Migration& m : record.migrations) digest.mix(m.id).mix(m.to);
  digest.mix(step).mix(event.task.id).mix(
      state.active_task(event.task.id).node);
}

}  // namespace partree::core
