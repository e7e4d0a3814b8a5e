// The online allocation algorithm interface.
//
// Caller <-> allocator contract, in event order:
//
//   arrival t:   node = alloc.place(t, state)      // state BEFORE placing t
//                state.place(t, node)
//                if (migs = alloc.maybe_reallocate(state))  // state AFTER
//                    state.migrate(*migs)
//   departure t: alloc.on_departure(id, state)     // placement still live
//                state.remove(id)
//
// core::apply_event (core/step.hpp) is the one implementation of this
// sequence; sim::Engine, serve::PartitionService and the replay loops
// call it rather than the methods below.
//
// Allocators are online: place() sees only the arriving task's size and the
// current state -- never future events or task durations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine_state.hpp"

namespace partree::core {

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Chooses a submachine (node of subtree size == task.size) for an
  /// arriving task. Must be deterministic given the allocator's state for
  /// deterministic algorithms.
  [[nodiscard]] virtual tree::NodeId place(const Task& task,
                                           const MachineState& state) = 0;

  /// Called when `id` departs, before apply_event removes it, so the
  /// current placement is still visible via `state`.
  virtual void on_departure(TaskId id, const MachineState& state) {
    (void)id;
    (void)state;
  }

  /// Called after each arrival is applied. Return a migration list to
  /// perform a reallocation now, or nullopt to do nothing. The list names
  /// only tasks that move (from != to; MachineState::migrate aborts on a
  /// self-move), so its length is the round's move count, and an empty
  /// list is a round that moved nothing.
  [[nodiscard]] virtual std::optional<std::vector<Migration>>
  maybe_reallocate(const MachineState& state) {
    (void)state;
    return std::nullopt;
  }

  /// Human-readable identifier ("greedy", "dmix(d=2)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Restores the allocator to its initial (empty-machine) state.
  virtual void reset() = 0;

  /// TEST-ONLY fault injection seam: corrupts the allocator's internal
  /// bookkeeping (e.g. a CopySet aggregate) so the self-check below trips.
  /// Returns true iff a corruption was actually applied; the default has
  /// no corruptible state and returns false. Never call outside
  /// tests/fault injection.
  virtual bool debug_corrupt_state() { return false; }

  /// Self-check of the allocator's internal bookkeeping against its own
  /// ground truth. Returns "" when consistent (the default: nothing to
  /// check), else a description of the first inconsistency. The engine's
  /// debug_checks net calls this after every event, so a corrupted
  /// allocator throws sim::InvariantViolation instead of silently
  /// producing plausible-looking placements.
  [[nodiscard]] virtual std::string debug_check_state() const { return {}; }
};

using AllocatorPtr = std::unique_ptr<Allocator>;

}  // namespace partree::core
