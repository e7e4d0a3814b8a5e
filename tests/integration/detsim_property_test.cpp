// Detsim at property scale: 200 seeded fault-injection runs per
// allocator and case.
//
// Every recoverable fault (alloc_fail, cancel) must leave the machine's
// state and placement digests identical to the fault-free baseline's.
// Two-fault plans that may hold corruptions must never diverge: an
// applied corruption is caught by the invariant net, and every other run
// recovers, is cancelled or is skipped with the baseline's digests.
#include <gtest/gtest.h>

#include <string>

#include "sim/detsim.hpp"
#include "util/rng.hpp"

namespace partree::sim {
namespace {

constexpr std::uint64_t kSeedsPerAllocator = 200;

/// The paper's main algorithms plus randomized ones: CopySet-backed
/// (basic, dmix) and stateless (greedy, random) recovery paths both get
/// exercised.
const char* const kAllocators[] = {"greedy", "basic", "dmix:d=1", "random",
                                   "randmix:d=2"};

class DetSimPropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DetSimPropertyTest, EveryRecoverableFaultRecoversOrIsSkipped) {
  // One split stream drives the fault draws so per-seed plans are
  // independent of the workload derivation (which uses the seed itself).
  util::Rng plan_rng(0xde751e'0001ULL);
  for (std::uint64_t seed = 1; seed <= kSeedsPerAllocator; ++seed) {
    DetSimOptions options;
    options.seed = seed;
    options.allocator = GetParam();
    const std::uint64_t n_events = detsim_event_count(options);
    options.faults = random_fault_plan(plan_rng, n_events,
                                      /*include_corruption=*/false);
    const DetSimReport report = run_detsim(options);
    ASSERT_NE(report.outcome, DetSimOutcome::kDivergence)
        << "repro: seed=" << seed << " alloc=" << options.allocator
        << " faults=[" << options.faults.to_string() << "] "
        << report.detail;
    EXPECT_EQ(report.run_digest, report.baseline_digest)
        << "seed=" << seed << " faults=[" << options.faults.to_string()
        << "]";
    EXPECT_EQ(report.run_placement_digest, report.baseline_placement_digest)
        << "seed=" << seed << " faults=[" << options.faults.to_string()
        << "]";
  }
}

TEST_P(DetSimPropertyTest, MixedTwoFaultPlansAreCaughtOrRecover) {
  util::Rng plan_rng(0xde751e'0002ULL);
  std::uint64_t caught = 0;
  for (std::uint64_t seed = 1; seed <= kSeedsPerAllocator; ++seed) {
    DetSimOptions options;
    options.seed = seed;
    options.allocator = GetParam();
    const std::uint64_t n_events = detsim_event_count(options);
    const Fault first = random_fault_plan(plan_rng, n_events,
                                          /*include_corruption=*/true)
                            .faults()[0];
    Fault second = first;
    while (second.step == first.step) {
      second = random_fault_plan(plan_rng, n_events,
                                 /*include_corruption=*/true)
                   .faults()[0];
    }
    options.faults = FaultPlan({first, second});
    const std::string repro = "seed=" + std::to_string(seed) + " alloc=" +
                              options.allocator + " faults=[" +
                              options.faults.to_string() + "]";
    const DetSimReport report = run_detsim(options);
    ASSERT_NE(report.outcome, DetSimOutcome::kDivergence)
        << repro << " " << report.detail;
    if (report.outcome == DetSimOutcome::kCaught) {
      // The violation names the last applied fault, which must be one of
      // the plan's corruptions.
      bool named = false;
      for (const Fault& f : options.faults.faults()) {
        named |= fault_is_corruption(f.kind) &&
                 report.detail.ends_with("[injected fault " + f.to_string() +
                                         "]");
      }
      EXPECT_TRUE(named) << repro << " " << report.detail;
      ++caught;
      continue;
    }
    EXPECT_EQ(report.run_digest, report.baseline_digest) << repro;
    EXPECT_EQ(report.run_placement_digest, report.baseline_placement_digest)
        << repro;
  }
  // Both verdict paths ran.
  EXPECT_GT(caught, 0u);
  EXPECT_LT(caught, kSeedsPerAllocator);
}

INSTANTIATE_TEST_SUITE_P(Allocators, DetSimPropertyTest,
                         ::testing::ValuesIn(kAllocators));

}  // namespace
}  // namespace partree::sim
