// The event-replay engine: drives an allocator over an event source, one
// core::apply_event step per event, and observes around each step (fault
// injection, slowdowns, load series, digests, invariant checks) to fill
// the run's SimResult, which holds every count the run keeps. A failed
// invariant check throws InvariantViolation; an injected cancel throws
// FaultInjectedError (sim/faults.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/allocator.hpp"
#include "core/event_source.hpp"
#include "core/sequence.hpp"
#include "sim/result.hpp"

namespace partree::sim {

class FaultInjector;

/// Thrown by a run with EngineOptions::debug_checks when an invariant
/// fails. The message names the failed check and, under a fault
/// injector, the last applied fault ("... [injected fault
/// corrupt:load_tree@30]"). The run is abandoned; the allocator is reset
/// by its next run.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

struct EngineOptions {
  /// Record the post-event max-load series (needed for max_tau E[L]).
  bool record_series = false;
  /// Track per-task slowdowns (max PE load inside each task's submachine
  /// over its lifetime). Adds O(overlapping tasks) work per event.
  bool record_slowdowns = false;
  /// Validate the load-accounting invariants after every event:
  /// LoadTree::max_load() must equal max over pe_loads(), the total active
  /// size must equal the sum of active task sizes, and the active-task
  /// counts must agree. O(N) per event; on violation, throws
  /// InvariantViolation. For tests.
  bool debug_checks = false;
  /// Record a MachineState digest at every reallocation epoch boundary
  /// (after each applied reallocation and at run end) into
  /// SimResult::epoch_digests / final_digest, and fold every event's
  /// placement into SimResult::placement_digest. The digests are detsim's cheap
  /// equivalence oracle for differential replay. O(active tasks) per
  /// epoch plus O(moves) per event; off by default so fault-free hot
  /// paths pay nothing.
  bool record_digests = false;
  /// When non-null, the run consults the injector once per event and
  /// applies any scheduled fault (sim/faults.hpp documents the per-kind
  /// semantics). Corruption faults require debug_checks, which then
  /// throws InvariantViolation naming the fault; the injector is
  /// begin_run()-reset at the start of every run.
  FaultInjector* faults = nullptr;
  /// Invoked once per reallocation round with its migration list, after
  /// core::apply_event has applied it; each entry still names the move's
  /// `from` and `to` nodes. Used e.g. to price migrations on a concrete
  /// interconnect.
  std::function<void(std::span<const core::Migration>)> on_reallocation;
};

class Engine {
 public:
  explicit Engine(tree::Topology topo, EngineOptions options = {});

  /// Replays a fixed sequence. The allocator is reset() first.
  [[nodiscard]] SimResult run(const core::TaskSequence& sequence,
                              core::Allocator& allocator);

  /// Drives an interactive event source (e.g. the adaptive adversary).
  /// If `recorded` is non-null, every produced event is appended to it so
  /// the run can be replayed later as a fixed sequence.
  [[nodiscard]] SimResult run_interactive(core::EventSource& source,
                                          core::Allocator& allocator,
                                          core::TaskSequence* recorded = nullptr);

 private:
  tree::Topology topo_;
  EngineOptions options_;
};

}  // namespace partree::sim
