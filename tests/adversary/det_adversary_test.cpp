#include "adversary/det_adversary.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

namespace partree::adversary {
namespace {

TEST(DetAdversaryTest, ForcedLoadFormula) {
  const tree::Topology topo(1024);
  EXPECT_EQ(DetAdversary(topo, 0).forced_load(), 1u);
  EXPECT_EQ(DetAdversary(topo, 1).forced_load(), 1u);
  EXPECT_EQ(DetAdversary(topo, 2).forced_load(), 2u);
  EXPECT_EQ(DetAdversary(topo, 3).forced_load(), 2u);
  EXPECT_EQ(DetAdversary(topo, 10).forced_load(), 6u);
}

TEST(DetAdversaryTest, ForDClampsAtLogN) {
  const tree::Topology topo(16);
  EXPECT_EQ(DetAdversary::for_d(topo, 100).forced_load(),
            util::ceil_div(4 + 1, 2));
  EXPECT_EQ(DetAdversary::for_d(topo, 0, true).forced_load(),
            util::ceil_div(4 + 1, 2));
  EXPECT_EQ(DetAdversary::for_d(topo, 2).forced_load(), 2u);
}

TEST(DetAdversaryTest, SequenceIsValidAndUnitOptimal) {
  const tree::Topology topo(64);
  core::TaskSequence recorded;
  DetAdversary adversary(topo, topo.height());
  auto alloc = core::make_allocator("greedy", topo);
  sim::Engine engine(topo);
  const auto result = engine.run_interactive(adversary, *alloc, &recorded);
  (void)result;
  EXPECT_EQ(recorded.validate(topo.n_leaves()), "");
  EXPECT_EQ(recorded.optimal_load(topo.n_leaves()), 1u);
  EXPECT_LE(recorded.peak_active_size(), topo.n_leaves());
}

class AdversaryForcesBound
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(AdversaryForcesBound, EveryDeterministicAllocatorSuffers) {
  // Theorem 4.3 instantiated against each shipped deterministic
  // no-reallocation algorithm with p = log N phases.
  const auto [n, spec] = GetParam();
  const tree::Topology topo(n);
  DetAdversary adversary(topo, topo.height());
  auto alloc = core::make_allocator(spec, topo);
  sim::Engine engine(topo);
  const auto result = engine.run_interactive(adversary, *alloc);
  EXPECT_GE(result.max_load, adversary.forced_load())
      << spec << " escaped the adversary on N=" << n;
  EXPECT_EQ(result.optimal_load, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AdversaryForcesBound,
    ::testing::Combine(::testing::Values<std::uint64_t>(16, 64, 256, 1024),
                       ::testing::Values(std::string("greedy"),
                                         std::string("basic"),
                                         std::string("dmix:d=inf"),
                                         std::string("leftmost"),
                                         std::string("roundrobin"))));

class AdversaryVsDRealloc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdversaryVsDRealloc, PhaseLimitedAdversaryStillForcesItsBound) {
  // Against A_M with finite d, run p = min{d, log N} phases: the sequence
  // stays under the reallocation budget yet forces ceil((p+1)/2).
  const std::uint64_t d = GetParam();
  const tree::Topology topo(256);
  DetAdversary adversary = DetAdversary::for_d(topo, d);
  auto alloc = core::make_allocator("dmix:d=" + std::to_string(d), topo);
  sim::Engine engine(topo);
  const auto result = engine.run_interactive(adversary, *alloc);
  EXPECT_GE(result.max_load, adversary.forced_load()) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(DValues, AdversaryVsDRealloc,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(DetAdversaryTest, RecordedSequenceReplaysIdentically) {
  // The fixed sequence recorded from the interactive run must reproduce
  // the same load when replayed against a fresh instance of the same
  // deterministic algorithm.
  const tree::Topology topo(128);
  core::TaskSequence recorded;
  DetAdversary adversary(topo, topo.height());
  auto alloc = core::make_allocator("greedy", topo);
  sim::Engine engine(topo);
  const auto live = engine.run_interactive(adversary, *alloc, &recorded);

  auto fresh = core::make_allocator("greedy", topo);
  const auto replay = engine.run(recorded, *fresh);
  EXPECT_EQ(replay.max_load, live.max_load);
  EXPECT_EQ(replay.events, live.events);
}

TEST(DetAdversaryTest, PhaseEndsPartitionTheSequence) {
  const tree::Topology topo(64);
  DetAdversary adversary(topo, topo.height());
  auto alloc = core::make_allocator("greedy", topo);
  core::TaskSequence recorded;
  sim::Engine engine(topo);
  (void)engine.run_interactive(adversary, *alloc, &recorded);

  const auto& ends = adversary.phase_ends();
  ASSERT_EQ(ends.size(), topo.height());  // p phases recorded
  EXPECT_EQ(ends.front(), topo.n_leaves());  // phase 0 = N arrivals
  for (std::size_t i = 1; i < ends.size(); ++i) {
    EXPECT_GT(ends[i], ends[i - 1]) << i;
  }
  EXPECT_EQ(ends.back(), recorded.size());
  // Every phase ends right after its arrival run: the event at the
  // boundary is an arrival (or the phase had no arrivals, in which case
  // the boundary equals the previous one -- excluded by the GT above).
  for (const std::size_t end : ends) {
    EXPECT_EQ(recorded[end - 1].kind, core::EventKind::kArrival);
  }
}

// Each phase's departures leave in ascending id order, whatever order the
// machine state stores its tasks in, so the recorded sequence does not
// depend on the standard library or on MachineState's layout.
TEST(DetAdversaryTest, DeparturesLeaveInAscendingIdOrder) {
  const tree::Topology topo(256);
  for (const std::string spec : {"greedy", "basic", "dmix:d=2", "roundrobin"}) {
    DetAdversary adversary(topo, topo.height());
    auto alloc = core::make_allocator(spec, topo);
    core::TaskSequence recorded;
    sim::Engine engine(topo);
    (void)engine.run_interactive(adversary, *alloc, &recorded);

    std::size_t departures = 0;
    std::size_t runs = 0;
    bool in_run = false;
    core::TaskId previous = 0;
    for (const core::Event& e : recorded.events()) {
      if (e.kind == core::EventKind::kArrival) {
        in_run = false;
        continue;
      }
      if (in_run) {
        EXPECT_LT(previous, e.task.id) << spec;
      } else {
        ++runs;
      }
      in_run = true;
      previous = e.task.id;
      ++departures;
    }
    EXPECT_GT(departures, 0u) << spec;
    // One block of departures per phase after phase 0.
    EXPECT_EQ(runs, adversary.phase_ends().size() - 1) << spec;
  }
}

TEST(DetAdversaryTest, ZeroPhasesJustFillsMachine) {
  const tree::Topology topo(8);
  DetAdversary adversary(topo, 0);
  auto alloc = core::make_allocator("greedy", topo);
  sim::Engine engine(topo);
  const auto result = engine.run_interactive(adversary, *alloc);
  EXPECT_EQ(result.arrivals, 8u);
  EXPECT_EQ(result.departures, 0u);
  EXPECT_EQ(result.max_load, 1u);
}

}  // namespace
}  // namespace partree::adversary
