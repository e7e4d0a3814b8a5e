#include "core/step.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/timing.hpp"

namespace partree::core {
namespace {

StepRecord apply_arrival(MachineState& state, Allocator& allocator,
                         const Task& task) {
  StepRecord rec;
  rec.size = task.size;
  {
    const obs::ScopedTimer place_timer(obs::DurationMetric::kPlaceNs);
    rec.node = allocator.place(task, state);
    state.place(task, rec.node);
  }
  {
    const obs::ScopedTimer realloc_timer(obs::DurationMetric::kReallocateNs);
    // The round is only a round once maybe_reallocate says yes, so its
    // two histograms bracket decision + application by hand and record
    // nothing for the (overwhelmingly common) no-op decisions.
    const std::uint64_t round_t0 =
        obs::duration_metrics_enabled() ? obs::detail::monotonic_ns() : 0;
    auto plan = allocator.maybe_reallocate(state);
    if (!plan) return rec;
    if (round_t0 != 0) {
      obs::record_duration(obs::DurationMetric::kReallocPlanNs,
                           obs::detail::monotonic_ns() - round_t0);
    }
    rec.reallocated = true;
    rec.migrations = std::move(*plan);
    for (const Migration& m : rec.migrations) {
      rec.migrated_size += state.active_task(m.id).task.size;
    }
    obs::record_value(obs::ValueMetric::kMigrationsApplied,
                      rec.migrations.size());
    state.migrate(rec.migrations);
    if (round_t0 != 0) {
      obs::record_duration(obs::DurationMetric::kReallocRoundNs,
                           obs::detail::monotonic_ns() - round_t0);
    }
  }
  // The round may have moved the task that triggered it.
  rec.node = state.active_task(task.id).node;
  return rec;
}

StepRecord apply_departure(MachineState& state, Allocator& allocator,
                           TaskId id) {
  const obs::ScopedTimer departure_timer(obs::DurationMetric::kDepartureNs);
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

}  // namespace partree::core
