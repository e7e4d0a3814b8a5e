// Detsim at property scale: 200 seeded fault-injection runs per
// allocator.
//
// Every recoverable fault (alloc_fail, cancel) must leave the machine's
// state and placement digests identical to the fault-free baseline's;
// corruption faults are excluded here because their only correct outcome
// is an abort (tier-1's DetSimDeathTest covers every corruption site, and
// detsim_runner's subprocess sweep covers them at scale).
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

INSTANTIATE_TEST_SUITE_P(Allocators, DetSimPropertyTest,
                         ::testing::ValuesIn(kAllocators));

}  // namespace
}  // namespace partree::sim
