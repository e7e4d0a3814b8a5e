// Seed-driven fault plans for the deterministic simulation harness.
//
// A FaultPlan is a sorted list of (step, kind) pairs: "at event index
// `step`, inject fault `kind`". Plans are pure data with a stable textual
// grammar so a failing run reduces to a copy-pastable triple:
//
//   plan       := fault [ "," fault ]*          (steps strictly increasing)
//   fault      := kind "@" step
//   kind       := "alloc_fail" | "cancel" | "corrupt:load_tree"
//               | "corrupt:active_map" | "corrupt:copy_set"
//
// Semantics (applied by sim::Engine via EngineOptions::faults):
//
//   alloc_fail          the arrival's placement fails transiently: after
//                       core::apply_event has applied the arrival (and
//                       any round it triggered), the engine rolls the
//                       task back out and re-applies it at its post-step
//                       node. A correct engine recovers
//                       digest-identically; a buggy rollback diverges and
//                       the digest oracle flags it.
//   cancel              FaultInjectedError is thrown at the step,
//                       abandoning the run mid-sequence; a fresh replay
//                       afterwards must reproduce the fault-free digest
//                       (nothing process-global may keep the abandoned
//                       run's state).
//   corrupt:load_tree   LoadTree::debug_corrupt_add behind the engine's
//                       back; debug_checks must throw
//                       sim::InvariantViolation at the fault step, with a
//                       message naming this fault.
//   corrupt:active_map  one active task dropped from MachineState without
//                       releasing its load; debug_checks must throw
//                       likewise.
//   corrupt:copy_set    Allocator::debug_corrupt_state (CopySet-backed
//                       allocators corrupt their used-PE aggregate);
//                       debug_checks must throw likewise. Skipped
//                       (recorded as unapplied) for allocators with no
//                       such state.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace partree::sim {

enum class FaultKind : std::uint8_t {
  kAllocFail = 0,
  kCancel,
  kCorruptLoadTree,
  kCorruptActiveMap,
  kCorruptCopySet,
  kCount,
};

inline constexpr std::size_t kNumFaultKinds =
    static_cast<std::size_t>(FaultKind::kCount);

/// Stable grammar token for a kind ("alloc_fail", "corrupt:load_tree", ...).
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;

/// True for the corrupt:* kinds, whose only correct outcome once applied
/// is a caught invariant violation (they require
/// EngineOptions::debug_checks).
[[nodiscard]] bool fault_is_corruption(FaultKind kind) noexcept;

/// One scheduled fault.
struct Fault {
  std::uint64_t step = 0;  ///< 0-based event index the fault fires at
  FaultKind kind = FaultKind::kAllocFail;

  /// Grammar form, e.g. "corrupt:load_tree@30".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Fault&, const Fault&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<Fault> faults);

  /// Parses the plan grammar. Throws std::invalid_argument (with the
  /// offending token) on unknown kinds, malformed steps, or non-increasing
  /// step order. "" parses to the empty (fault-free) plan.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  /// Canonical grammar form; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] const std::vector<Fault>& faults() const noexcept {
    return faults_;
  }
  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }

  /// True when any scheduled fault is a corrupt:* kind (the plan then
  /// requires debug_checks).
  [[nodiscard]] bool has_corruption() const noexcept;

  /// The fault scheduled exactly at `step`, or nullptr.
  [[nodiscard]] const Fault* at(std::uint64_t step) const noexcept;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<Fault> faults_;  // sorted by step, strictly increasing
};

/// Draws a one-fault plan for a run of `n_events` events from a split of
/// `rng`: uniform step in [1, n_events), kind uniform over the injectable
/// kinds (corruption kinds included only when `include_corruption`).
/// n_events >= 2.
[[nodiscard]] FaultPlan random_fault_plan(util::Rng& rng,
                                          std::uint64_t n_events,
                                          bool include_corruption);

/// Thrown by the engine when a kCancel fault fires; the run is abandoned
/// at that step.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const Fault& fault)
      : std::runtime_error("injected fault " + fault.to_string()),
        fault_(fault) {}

  [[nodiscard]] const Fault& fault() const noexcept { return fault_; }

 private:
  Fault fault_;
};

/// Per-run injector the engine consults once per event. Stateful (cursor
/// over the sorted plan plus the faults applied so far); the engine calls
/// begin_run() at replay start, so one injector drives repeated runs.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  /// Resets the cursor, the applied faults and the skipped count for a
  /// fresh replay.
  void begin_run();

  /// The fault scheduled for this step, or nullptr. Steps must be
  /// consulted in increasing order within a run.
  [[nodiscard]] const Fault* on_step(std::uint64_t step);

  /// Records whether the engine actually applied the fault returned for
  /// this step (corruptions can be inapplicable, e.g. no active task).
  void record_applied(const Fault& fault, bool applied);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Faults applied in this run.
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return applied_.size();
  }
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }
  /// True when an applied fault was a corrupt:* kind.
  [[nodiscard]] bool corruption_applied() const noexcept;

  /// The most recently APPLIED fault in grammar form
  /// ("corrupt:load_tree@30"), or "" before any fault fired. The engine
  /// appends it to an InvariantViolation's message, so the message names
  /// the injected component and step.
  [[nodiscard]] std::string context() const;

 private:
  FaultPlan plan_;
  std::size_t cursor_ = 0;
  std::vector<Fault> applied_;  // in step order
  std::uint64_t skipped_ = 0;
};

/// Repro file: everything needed to replay one failing run
/// byte-for-byte, as `key,value` CSV rows (util::CsvWriter quotes a value
/// that holds commas, such as a two-fault plan):
///
///   schema,partree-detsim-repro-v2    always the first row
///   n_pes,64                          a power of two, at most 2^20
///   allocator,greedy                  a core::make_allocator spec
///   seed,0x0000000000000015           hex, like the digest
///   n_events,300                      0 = seed-derived (DetSimOptions)
///   faults,alloc_fail@250             the plan grammar above
///   expect,recovered
///   baseline_placement_digest,0x...   hex
///
/// After the schema row the keys may come in any order, each exactly once.
struct ReproSpec {
  std::uint64_t n_pes = 0;
  std::string allocator;
  std::uint64_t seed = 0;
  std::uint64_t n_events = 0;
  FaultPlan faults;
  /// What the original run did: "divergence", "caught" or "recovered"
  /// (sim::to_repro maps a run's outcome to one of them; read_repro
  /// rejects any other value).
  std::string expect;
  /// The fault-free baseline's SimResult::placement_digest, which names
  /// the run (a drained final digest is the same for every allocator).
  std::uint64_t baseline_placement_digest = 0;

  friend bool operator==(const ReproSpec&, const ReproSpec&) = default;
};

/// Serializes/parses the repro file. read_repro throws std::runtime_error
/// naming the 1-based line on a wrong schema row, a row that is not two
/// fields, an unknown, duplicate or missing key, or a value that does not
/// parse (naming the field too), so a stale or truncated file fails loudly
/// instead of replaying the wrong thing.
[[nodiscard]] std::string write_repro(const ReproSpec& spec);
[[nodiscard]] ReproSpec read_repro(std::string_view text);

}  // namespace partree::sim
