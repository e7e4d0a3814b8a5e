// Deterministic simulation harness: seeded workloads, fault injection,
// digest-based differential replay.
//
// detsim answers one question about the engine/allocator stack: "told to
// fail at step k in component c, does the system either recover to a
// digest-identical state or catch the fault with its invariant net?"
// Everything is derived from a single seed -- the workload, the fault
// plan, the allocator's randomness -- so any failing run reduces to a
// (seed, fault plan) pair that replays byte-for-byte.
//
// Layers:
//   * detsim_sequence  -- the seeded closed-loop workload (pure function
//     of (topology, seed, n_events)).
//   * run_detsim       -- fault-free baseline + faulted replay +
//     verification. Recoverable faults (alloc_fail, cancel) must converge
//     back to the baseline's state and placement digests; an applied
//     corruption must make the engine's debug_checks net throw
//     sim::InvariantViolation at the fault step, naming the fault.
//   * shrink_failing   -- greedy repro minimisation (fewer faults, then
//     smaller steps) against a caller-supplied "still fails" oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sequence.hpp"
#include "sim/faults.hpp"
#include "sim/result.hpp"
#include "tree/topology.hpp"

namespace partree::sim {

struct DetSimOptions {
  std::uint64_t n_pes = 64;
  /// Allocator spec for core::make_allocator; `seed` feeds its randomness.
  std::string allocator = "basic";
  std::uint64_t seed = 1;
  /// Workload length in events; 0 draws 200..999 from the seed (the fuzz
  /// convention), so plain seed sweeps also vary the sequence shape.
  std::uint64_t n_events = 0;
  FaultPlan faults;
  /// Engine invariant net; REQUIRED when `faults` has a corrupt:* kind
  /// (that is the net the corruption must trip).
  bool debug_checks = true;
};

enum class DetSimOutcome : std::uint8_t {
  kFaultFree,   ///< empty plan; digests recorded, nothing to verify
  kRecovered,   ///< fault(s) applied, digests identical to the baseline's
  kCancelled,   ///< a cancel fault abandoned the replay mid-sequence; a
                ///< fresh replay reproduced the baseline's digests
  kSkipped,     ///< every scheduled fault was inapplicable (e.g.
                ///< alloc_fail on a departure); digests still matched
  kCaught,      ///< a corruption applied and the debug_checks net threw
                ///< InvariantViolation; detail holds its message
  kDivergence,  ///< state or placements diverged from the baseline, an
                ///< invariant failed with no corruption applied, or a
                ///< corruption escaped the debug_checks net -- a BUG;
                ///< write a repro
};

[[nodiscard]] std::string_view outcome_name(DetSimOutcome outcome) noexcept;

struct DetSimReport {
  DetSimOutcome outcome = DetSimOutcome::kFaultFree;
  /// Events in the seeded sequence (the valid fault-step range).
  std::uint64_t events = 0;
  /// Fault-free final digest (the verification target).
  std::uint64_t baseline_digest = 0;
  /// Final digest of the faulted/verification replay.
  std::uint64_t run_digest = 0;
  /// SimResult::placement_digest of the baseline and of the
  /// faulted/verification replay; every verdict but kDivergence requires
  /// them equal.
  std::uint64_t baseline_placement_digest = 0;
  std::uint64_t run_placement_digest = 0;
  /// Faults the engine actually applied (cancel counts via the injector).
  std::uint64_t faults_applied = 0;
  /// Human-readable explanation for kDivergence (first mismatching epoch,
  /// differing placements, the violation message, ...) and the violation
  /// message for kCaught; empty otherwise.
  std::string detail;
  /// Per-reallocation-epoch digests of baseline and faulted replay.
  std::vector<EpochDigest> baseline_epochs;
  std::vector<EpochDigest> run_epochs;
};

/// The seeded workload: a closed-loop arrival/departure mix whose length,
/// utilization and size distribution are drawn from `seed`. Pure --
/// identical inputs yield identical sequences on every platform.
[[nodiscard]] core::TaskSequence detsim_sequence(const tree::Topology& topo,
                                                 std::uint64_t seed,
                                                 std::uint64_t n_events = 0);

/// Event count of the seeded workload for `options` (what random fault
/// plans need as their step range).
[[nodiscard]] std::uint64_t detsim_event_count(const DetSimOptions& options);

/// One fault-free replay with digests recorded (the baseline side of every
/// verification; also detsim's golden-digest source).
[[nodiscard]] SimResult run_baseline(const DetSimOptions& options);

/// Baseline + faulted replay + verification, one replay after the other.
/// The verdict of the faulted replay, in this order:
///   * it throws InvariantViolation: kCaught after an applied corruption,
///     kDivergence with none;
///   * a corruption applied and the replay got past it: kDivergence (the
///     net missed it);
///   * a cancel throws out of it at its step: a fresh replay must match
///     the baseline (kCancelled);
///   * otherwise it must match the baseline epoch by epoch and in its
///     placement digest: kRecovered, or kSkipped when no fault applied.
/// A violation in a fault-free replay (the baseline, or the fresh replay
/// after a cancel) propagates as InvariantViolation.
[[nodiscard]] DetSimReport run_detsim(const DetSimOptions& options);

/// Greedy repro minimisation. `still_fails` must return true for
/// `failing` itself (asserted); the result is a configuration that still
/// fails, with a subset of the original faults and each surviving step
/// lowered as far as halving-then-decrement probing reaches. Greedy, so
/// locally (not globally) minimal; every probe is one `still_fails` call.
[[nodiscard]] DetSimOptions shrink_failing(
    DetSimOptions failing,
    const std::function<bool(const DetSimOptions&)>& still_fails);

/// Repro file contents for a run: its options, the baseline's placement
/// digest, and `expect`: "divergence", "caught" or, for every other
/// outcome, "recovered".
[[nodiscard]] ReproSpec to_repro(const DetSimOptions& options,
                                 const DetSimReport& report);

/// The options that replay a repro file's run: its machine size,
/// allocator, seed, event count and fault plan.
[[nodiscard]] DetSimOptions from_repro(const ReproSpec& spec);

}  // namespace partree::sim
