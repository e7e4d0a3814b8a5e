// The one event-application path: everything that runs an allocator -- the
// replay engine, the online partition service, and any hand-written
// replay loop -- applies each event through core::apply_event, so the
// allocator contract (allocator.hpp) and its migration accounting exist
// exactly once. Serve == serial replay then holds by construction: both
// front ends run the same step on the same event sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/event.hpp"
#include "core/machine_state.hpp"
#include "util/digest.hpp"

namespace partree::core {

/// What one applied event did, for the caller's own accounting.
struct StepRecord {
  /// Arrival: the node the task lives on after the step, i.e. after any
  /// round it triggered moved it. Departure: the node the task left.
  tree::NodeId node = tree::kInvalidNode;
  /// Size of the arriving or departing task.
  std::uint64_t size = 0;
  /// True when the arrival triggered a reallocation round.
  bool reallocated = false;
  /// The round's plan: one entry per task it moved, so its size is the
  /// round's move count. Empty unless `reallocated`, and possibly empty
  /// even then -- a round that moved nothing.
  std::vector<Migration> migrations;
  /// Total size of the tasks the round moved.
  std::uint64_t migrated_size = 0;
};

/// Applies one event to `state` under the allocator contract:
///
///   arrival:   node = allocator.place(task, state); state.place(task, node);
///              if the allocator's maybe_reallocate returns a plan,
///              state.migrate(plan)
///   departure: allocator.on_departure(id, state); state.remove(id)
///
/// and returns what the step did; each caller adds the record to the
/// counts it owns (SimResult, ServiceStats). A departure must name an
/// active task; MachineState's validation aborts otherwise.
StepRecord apply_event(MachineState& state, Allocator& allocator,
                       const Event& event);

/// Folds where one applied event left its task into a placement digest
/// (SimResult::placement_digest, ServiceStats::placement_digest): for an
/// arrival, each planned move's id and destination, then the 0-based
/// event index `step`, the task id and the node `state` holds the task
/// on; for a departure, the node the task left. Call it once the step is
/// over, so the node read is where the task ended up.
void fold_placement(util::Fnv& digest, std::uint64_t step, const Event& event,
                    const StepRecord& record, const MachineState& state);

}  // namespace partree::core
