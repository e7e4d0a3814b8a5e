#include "sim/engine.hpp"

#include <algorithm>
#include <optional>

#include "core/step.hpp"
#include "sim/faults.hpp"
#include "sim/slowdown.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"
#include "util/digest.hpp"

namespace partree::sim {
namespace {

// debug_checks violation. When a fault injector is armed, the most
// recently applied fault rides along in the message, so it names the
// injected component and step.
[[noreturn]] void invariant_failure(std::string msg,
                                    const FaultInjector* injector) {
  const std::string fault = injector != nullptr ? injector->context() : "";
  if (!fault.empty()) msg += " [injected fault " + fault + "]";
  throw InvariantViolation(msg);
}

// EngineOptions::debug_checks: recompute the aggregates the O(log N)
// incremental updates maintain and compare, then let the allocator audit
// its own bookkeeping (e.g. a CopySet's indexes). Catches drift introduced
// by hot-path changes immediately, next to
// the event that caused it.
void check_state_invariants(const core::MachineState& state,
                            const core::Allocator& allocator,
                            const FaultInjector* injector) {
  const std::vector<std::uint64_t> loads = state.pe_loads();
  const std::uint64_t max_load =
      loads.empty() ? 0 : *std::max_element(loads.begin(), loads.end());
  if (state.max_load() != max_load) {
    invariant_failure("debug check: LoadTree max_load != max over pe_loads",
                      injector);
  }

  std::uint64_t active_size = 0;
  for (const core::ActiveTask& at : state.active_tasks()) {
    active_size += at.task.size;
  }
  if (state.active_size() != active_size) {
    invariant_failure(
        "debug check: LoadTree total != sum of active task sizes", injector);
  }
  if (state.loads().active_tasks() != state.active_count()) {
    invariant_failure("debug check: active task counts disagree", injector);
  }

  const std::string allocator_error = allocator.debug_check_state();
  if (!allocator_error.empty()) {
    invariant_failure("debug check: allocator state: " + allocator_error,
                      injector);
  }
}

}  // namespace

Engine::Engine(tree::Topology topo, EngineOptions options)
    : topo_(topo), options_(options) {}

SimResult Engine::run(const core::TaskSequence& sequence,
                      core::Allocator& allocator) {
  const std::string error = sequence.validate(topo_.n_leaves());
  PARTREE_ASSERT(error.empty(), error.c_str());
  core::SequenceSource source(sequence.events());
  return run_interactive(source, allocator);
}

SimResult Engine::run_interactive(core::EventSource& source,
                                  core::Allocator& allocator,
                                  core::TaskSequence* recorded) {
  const std::uint64_t start_ns = util::monotonic_ns();
  allocator.reset();
  core::MachineState state(topo_);

  FaultInjector* injector = options_.faults;
  if (injector != nullptr) {
    // Corruption faults are only observable through the debug_checks net;
    // running them without it would corrupt silently -- the exact failure
    // mode detsim exists to rule out.
    PARTREE_ASSERT(!injector->plan().has_corruption() ||
                       options_.debug_checks,
                   "corruption faults require EngineOptions::debug_checks");
    injector->begin_run();
  }

  SimResult result;
  result.allocator = allocator.name();
  result.n_pes = topo_.n_leaves();

  std::optional<SlowdownTracker> slowdowns;
  if (options_.record_slowdowns) slowdowns.emplace(topo_);
  util::Fnv placement;  // SimResult::placement_digest, under record_digests

  while (auto event = source.next(state)) {
    const std::uint64_t step = result.events;
    bool fail_alloc_once = false;
    if (injector != nullptr) {
      if (const Fault* fault = injector->on_step(step)) {
        bool applied = false;
        switch (fault->kind) {
          case FaultKind::kAllocFail:
            // Applies to the arrival below: its placement fails
            // transiently and is rolled back + re-applied after the step.
            fail_alloc_once = event->kind == core::EventKind::kArrival;
            applied = fail_alloc_once;
            break;
          case FaultKind::kCancel:
            injector->record_applied(*fault, true);
            throw FaultInjectedError(*fault);
          case FaultKind::kCorruptLoadTree:
            state.debug_corrupt_loads(tree::NodeId{state.n_pes()}, 1000);
            applied = true;
            break;
          case FaultKind::kCorruptActiveMap:
            applied = state.debug_corrupt_drop_active();
            break;
          case FaultKind::kCorruptCopySet:
            applied = allocator.debug_corrupt_state();
            break;
          case FaultKind::kCount:
            break;
        }
        injector->record_applied(*fault, applied);
        if (applied) ++result.faults_injected;
        // A corruption must be caught at the fault step, before the
        // (possibly now-invalid) event is processed against the broken
        // state -- a departure of a dropped task would otherwise abort on
        // a model assertion.
        if (applied && fault_is_corruption(fault->kind)) {
          check_state_invariants(state, allocator, injector);
        }
      }
    }

    // The step applies the event; the engine observes around it.
    core::StepRecord step_record;
    if (event->kind == core::EventKind::kArrival) {
      const core::Task& task = event->task;
      if (recorded != nullptr) recorded->arrive_as(task.id, task.size);
      step_record = core::apply_event(state, allocator, *event);
      if (fail_alloc_once) {
        // Injected transient allocation failure: the placement "failed"
        // to apply; roll the task back out and re-apply it at its
        // post-step node. Recovery must be digest-exact -- the roll-back
        // exercises the assign/release paths under fire.
        state.remove(task.id);
        state.place(task, step_record.node);
      }
      if (step_record.reallocated) {
        ++result.reallocation_count;
        result.migration_count += step_record.migrations.size();
        result.migrated_size += step_record.migrated_size;
        if (options_.on_reallocation) {
          options_.on_reallocation(step_record.migrations);
        }
      }
      if (slowdowns) {
        if (step_record.reallocated) {
          slowdowns->on_reallocation(state);
        } else {
          slowdowns->on_arrival(task.id, step_record.node, state);
        }
      }
      ++result.arrivals;
    } else {
      if (recorded != nullptr) recorded->depart(event->task.id);
      // Before the step: the tracker reads the departing placement.
      if (slowdowns) slowdowns->on_departure(event->task.id, state);
      step_record = core::apply_event(state, allocator, *event);
      ++result.departures;
    }
    ++result.events;

    const std::uint64_t load = state.max_load();
    result.max_load = std::max(result.max_load, load);
    if (options_.record_series) result.load_series.push_back(load);
    if (options_.record_digests) {
      // After any alloc_fail roll-back, so a re-place onto the wrong node
      // shows up even for allocators that never read the state.
      core::fold_placement(placement, step, *event, step_record, state);
      if (step_record.reallocated) {
        result.epoch_digests.push_back({result.events, state.digest()});
      }
    }
    if (options_.debug_checks) {
      check_state_invariants(state, allocator, injector);
    }
  }

  if (options_.record_digests) {
    result.placement_digest = placement.value();
    result.final_digest = state.digest();
    result.epoch_digests.push_back({result.events, result.final_digest});
  }

  if (slowdowns) {
    result.task_slowdowns = slowdowns->completed();
    result.worst_slowdown = slowdowns->worst();
    result.mean_slowdown = slowdowns->mean_completed();
  }
  result.optimal_load = state.optimal_load();
  result.wall_seconds =
      static_cast<double>(util::monotonic_ns() - start_ns) / 1e9;
  return result;
}

}  // namespace partree::sim
