// The deterministic fault-injection harness end to end: state digests,
// recoverable-fault verification, shrinking, one case per corruption
// fault site asserting the invariant net catches it and names the
// injected component and step, and plans that mix both.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/event.hpp"
#include "core/factory.hpp"
#include "core/machine_state.hpp"
#include "sim/detsim.hpp"
#include "sim/engine.hpp"

namespace partree::sim {
namespace {

// --- digest basics ---------------------------------------------------------

TEST(StateDigestTest, EmptyStatesAgreeAndPlacementChangesDigest) {
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  EXPECT_EQ(a.digest(), b.digest());
  a.place({0, 2}, 4);
  EXPECT_NE(a.digest(), b.digest());
  b.place({0, 2}, 4);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.loads().digest(), b.loads().digest());
}

TEST(StateDigestTest, ActiveSetDigestIsOrderIndependent) {
  // The active tasks are stored in no particular order; building the same
  // final placements in a different order must yield the same digest.
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  a.place({0, 1}, 8);
  a.place({1, 2}, 4);
  a.place({2, 1}, 9);
  b.place({2, 1}, 9);
  b.place({0, 1}, 8);
  b.place({1, 2}, 4);
  EXPECT_EQ(a.digest(), b.digest());
  // A swap-remove reorders the storage: task 2 fills task 0's slot, and
  // task 0 comes back at the end.
  a.remove(0);
  a.place({0, 1}, 8);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(StateDigestTest, PlacementNodeIsPartOfTheDigest) {
  core::MachineState a{tree::Topology(8)};
  core::MachineState b{tree::Topology(8)};
  a.place({0, 1}, 8);
  b.place({0, 1}, 9);  // same task, different leaf
  EXPECT_NE(a.digest(), b.digest());
}

// --- seeded workload and baseline ------------------------------------------

TEST(DetSimTest, SequenceAndBaselineAreSeedDeterministic) {
  const tree::Topology topo(64);
  EXPECT_EQ(detsim_sequence(topo, 5), detsim_sequence(topo, 5));
  EXPECT_NE(detsim_sequence(topo, 5), detsim_sequence(topo, 6));

  DetSimOptions options;
  options.seed = 5;
  const SimResult a = run_baseline(options);
  const SimResult b = run_baseline(options);
  EXPECT_NE(a.final_digest, 0u);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.epoch_digests, b.epoch_digests);
  EXPECT_EQ(detsim_event_count(options), a.events);
}

TEST(DetSimTest, ExplicitLengthKeepsWorkloadShape) {
  const tree::Topology topo(64);
  const auto seq = detsim_sequence(topo, 9, 50);
  EXPECT_EQ(seq.size(), 50u);
  EXPECT_TRUE(seq.validate(64).empty());
}

// --- recoverable faults -----------------------------------------------------

/// First event index >= 1 matching `kind` in the seeded workload (the
/// detsim step domain), or 0 when absent.
std::uint64_t first_step(const core::TaskSequence& seq, core::EventKind kind) {
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i].kind == kind) return i;
  }
  return 0;
}

TEST(DetSimTest, FaultFreePlanReportsFaultFree) {
  DetSimOptions options;
  options.seed = 11;
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kFaultFree);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, AllocFailOnArrivalRecoversDigestExactly) {
  const tree::Topology topo(64);
  DetSimOptions options;
  options.seed = 11;
  const std::uint64_t step = first_step(
      detsim_sequence(topo, options.seed), core::EventKind::kArrival);
  ASSERT_GT(step, 0u);
  options.faults = FaultPlan({{step, FaultKind::kAllocFail}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kRecovered) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
  EXPECT_EQ(report.run_epochs, report.baseline_epochs);
  EXPECT_NE(report.baseline_placement_digest, 0u);
  EXPECT_EQ(report.run_placement_digest, report.baseline_placement_digest);
}

TEST(DetSimTest, AllocFailOnDepartureIsSkippedNotApplied) {
  const tree::Topology topo(64);
  DetSimOptions options;
  options.seed = 11;
  const std::uint64_t step = first_step(
      detsim_sequence(topo, options.seed), core::EventKind::kDeparture);
  ASSERT_GT(step, 0u);
  options.faults = FaultPlan({{step, FaultKind::kAllocFail}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kSkipped) << report.detail;
  EXPECT_EQ(report.faults_applied, 0u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

TEST(DetSimTest, CancelAbandonsTheRunAndRetriesClean) {
  DetSimOptions options;
  options.seed = 13;
  options.faults = FaultPlan({{20, FaultKind::kCancel}});

  // The fault throws out of the engine at its step.
  const tree::Topology topo(options.n_pes);
  FaultInjector injector(options.faults);
  Engine engine(topo, {.faults = &injector});
  const core::AllocatorPtr alloc =
      core::make_allocator(options.allocator, topo, options.seed);
  try {
    (void)engine.run(detsim_sequence(topo, options.seed), *alloc);
    ADD_FAILURE() << "cancel@20 did not throw";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.fault().step, 20u);
  }

  // run_detsim catches it, and a fresh replay reproduces the baseline.
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kCancelled) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
  EXPECT_EQ(report.run_epochs, report.baseline_epochs);
  EXPECT_EQ(report.run_placement_digest, report.baseline_placement_digest);
}

// A detsim run ends drained, so its final state digest depends only on N
// and the peak active size: greedy and leftmost (which stacks every task
// on the leftmost node of its size) end in the same state. Only the
// placement digest tells them apart.
TEST(DetSimTest, PlacementDigestSeparatesWhatTheFinalDigestCannot) {
  DetSimOptions greedy;
  greedy.seed = 1;
  greedy.allocator = "greedy";
  DetSimOptions leftmost = greedy;
  leftmost.allocator = "leftmost";
  const SimResult a = run_baseline(greedy);
  const SimResult b = run_baseline(leftmost);
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_NE(a.placement_digest, b.placement_digest);
  EXPECT_EQ(a.placement_digest, run_baseline(greedy).placement_digest);
}

// --- shrinking --------------------------------------------------------------

TEST(DetSimTest, ShrinkDropsFaultsAndLowersSteps) {
  DetSimOptions failing;
  failing.faults =
      FaultPlan::parse("cancel@3,alloc_fail@40,cancel@90");
  // Synthetic oracle: "fails" iff some alloc_fail fault has step >= 10.
  const auto still_fails = [](const DetSimOptions& candidate) {
    for (const Fault& f : candidate.faults.faults()) {
      if (f.kind == FaultKind::kAllocFail && f.step >= 10) return true;
    }
    return false;
  };
  const DetSimOptions shrunk = shrink_failing(failing, still_fails);
  EXPECT_EQ(shrunk.faults.to_string(), "alloc_fail@10");
}

TEST(DetSimTest, ReproCarriesTheVerifiedOutcome) {
  DetSimOptions options;
  options.seed = 3;
  options.allocator = "greedy";
  options.faults = FaultPlan::parse("corrupt:load_tree@4");
  options.n_events = 40;
  DetSimReport report;
  report.baseline_placement_digest = 0xabcULL;
  for (const auto& [outcome, expect] :
       {std::pair{DetSimOutcome::kCaught, "caught"},
        std::pair{DetSimOutcome::kDivergence, "divergence"},
        std::pair{DetSimOutcome::kRecovered, "recovered"},
        std::pair{DetSimOutcome::kCancelled, "recovered"},
        std::pair{DetSimOutcome::kSkipped, "recovered"}}) {
    report.outcome = outcome;
    EXPECT_EQ(to_repro(options, report).expect, expect);
  }
  report.outcome = DetSimOutcome::kCaught;
  const ReproSpec spec = to_repro(options, report);
  EXPECT_EQ(spec.expect, "caught");
  EXPECT_EQ(spec.seed, 3u);
  EXPECT_EQ(spec.faults.to_string(), "corrupt:load_tree@4");
  EXPECT_EQ(spec.n_events, 40u);
  EXPECT_EQ(spec.baseline_placement_digest, 0xabcULL);
  const ReproSpec reread = read_repro(write_repro(spec));
  EXPECT_EQ(reread, spec);
}

// The run tests/cli/good_repro.csv records: --replay rebuilds it from the
// file alone, and its placement digest tells it from other runs.
TEST(DetSimTest, ReplayOfAReproMatchesTheOriginalPlacement) {
  DetSimOptions options;
  options.allocator = "greedy";
  options.seed = 21;
  options.n_events = 300;
  options.faults = FaultPlan::parse("alloc_fail@250");
  const DetSimReport original = run_detsim(options);
  ASSERT_EQ(original.outcome, DetSimOutcome::kRecovered);
  const ReproSpec spec =
      read_repro(write_repro(to_repro(options, original)));

  DetSimOptions replay = from_repro(spec);
  const DetSimReport again = run_detsim(replay);
  EXPECT_EQ(again.outcome, original.outcome);
  EXPECT_EQ(again.baseline_placement_digest, spec.baseline_placement_digest);
  EXPECT_EQ(again.run_placement_digest, original.run_placement_digest);

  // At the seed-derived length alloc_fail@250 does not apply, and only
  // the placement digest tells the runs apart.
  replay.n_events = 0;
  const DetSimReport other = run_detsim(replay);
  EXPECT_EQ(other.outcome, DetSimOutcome::kSkipped);
  EXPECT_EQ(other.baseline_digest, original.baseline_digest);
  EXPECT_NE(other.baseline_placement_digest, spec.baseline_placement_digest);
}

// --- corruption fault sites: caught, naming component and step -----------

/// A step by which at least three tasks are active in seed 21's workload,
/// so every corruption site has state to corrupt (the basic allocator
/// then holds at least one live copy).
std::uint64_t busy_step(std::uint64_t seed) {
  const tree::Topology topo(64);
  const core::TaskSequence seq = detsim_sequence(topo, seed);
  std::uint64_t active = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (active >= 3) return i;
    if (seq[i].kind == core::EventKind::kArrival) {
      ++active;
    } else {
      --active;
    }
  }
  return 0;
}

DetSimOptions corruption_options(FaultKind kind) {
  DetSimOptions options;
  options.seed = 21;
  options.allocator = "basic";  // CopySet-backed, so all three sites exist
  const std::uint64_t step = busy_step(options.seed);
  EXPECT_GT(step, 0u);
  options.faults = FaultPlan({{step, kind}});
  return options;
}

/// Runs a one-corruption plan and requires the net to catch it, with a
/// detail naming the failed check and the fault.
void expect_caught_and_named(FaultKind kind) {
  const DetSimOptions options = corruption_options(kind);
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kCaught) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  const std::string fault = options.faults.faults()[0].to_string();
  EXPECT_TRUE(report.detail.starts_with("debug check: ") &&
              report.detail.ends_with(" [injected fault " + fault + "]"))
      << report.detail;
}

TEST(DetSimTest, LoadTreeCorruptionIsCaughtAndNamed) {
  expect_caught_and_named(FaultKind::kCorruptLoadTree);
}

TEST(DetSimTest, ActiveMapCorruptionIsCaughtAndNamed) {
  expect_caught_and_named(FaultKind::kCorruptActiveMap);
}

TEST(DetSimTest, CopySetCorruptionIsCaughtAndNamed) {
  expect_caught_and_named(FaultKind::kCorruptCopySet);
}

// --- plans that mix recoverable faults and corruptions ---------------------

// The cancel fires first, so the corruption never runs: the fresh replay
// decides, exactly as for a cancel alone.
TEST(DetSimTest, CancelBeforeACorruptionIsCancelled) {
  DetSimOptions options;
  options.seed = 1;
  options.faults = FaultPlan::parse("cancel@3,corrupt:load_tree@40");
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kCancelled) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
}

// The corruption fires first and is caught at its step; the cancel after
// it never fires.
TEST(DetSimTest, CorruptionBeforeACancelIsCaught) {
  DetSimOptions options = corruption_options(FaultKind::kCorruptLoadTree);
  const Fault corruption = options.faults.faults()[0];
  options.faults = FaultPlan({corruption, {corruption.step + 5,
                                           FaultKind::kCancel}});
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kCaught) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_NE(report.detail.find(corruption.to_string()), std::string::npos)
      << report.detail;
}

// greedy keeps no CopySet, so the corruption is inapplicable: the applied
// alloc_fail alone decides, and it recovers.
TEST(DetSimTest, InapplicableCorruptionLeavesARecoveredRun) {
  DetSimOptions options;
  options.seed = 11;
  options.allocator = "greedy";
  options.faults = FaultPlan::parse("alloc_fail@1,corrupt:copy_set@50");
  const DetSimReport report = run_detsim(options);
  EXPECT_EQ(report.outcome, DetSimOutcome::kRecovered) << report.detail;
  EXPECT_EQ(report.faults_applied, 1u);
  EXPECT_EQ(report.run_digest, report.baseline_digest);
  EXPECT_EQ(report.run_placement_digest, report.baseline_placement_digest);
}

using DetSimDeathTest = ::testing::Test;

TEST(DetSimDeathTest, CorruptionWithoutDebugChecksIsRefused) {
  DetSimOptions options = corruption_options(FaultKind::kCorruptLoadTree);
  options.debug_checks = false;
  EXPECT_DEATH((void)run_detsim(options),
               "require.*debug_checks|debug_checks");
}

}  // namespace
}  // namespace partree::sim
