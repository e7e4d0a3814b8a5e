#include "core/randomized.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "sim/trials.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::core {
namespace {

TEST(RandomizedTest, PlacementsAreValidNodes) {
  const tree::Topology topo(16);
  MachineState state{topo};
  RandomizedAllocator alloc(topo, 42);
  for (TaskId id = 0; id < 200; ++id) {
    const std::uint64_t size = std::uint64_t{1} << (id % 5);
    const tree::NodeId node = alloc.place({id, size}, state);
    ASSERT_TRUE(topo.valid(node));
    ASSERT_EQ(topo.subtree_size(node), size);
  }
}

TEST(RandomizedTest, CoversAllSubmachines) {
  const tree::Topology topo(8);
  MachineState state{topo};
  RandomizedAllocator alloc(topo, 7);
  std::set<tree::NodeId> seen;
  for (TaskId id = 0; id < 400; ++id) {
    seen.insert(alloc.place({id, 2}, state));
  }
  EXPECT_EQ(seen.size(), 4u);  // all size-2 submachines hit
}

TEST(RandomizedTest, DeterministicGivenSeed) {
  const tree::Topology topo(16);
  MachineState state{topo};
  RandomizedAllocator a(topo, 99);
  RandomizedAllocator b(topo, 99);
  for (TaskId id = 0; id < 50; ++id) {
    EXPECT_EQ(a.place({id, 2}, state), b.place({id, 2}, state));
  }
}

TEST(RandomizedTest, ResetReplaysStream) {
  const tree::Topology topo(16);
  MachineState state{topo};
  RandomizedAllocator alloc(topo, 5);
  std::vector<tree::NodeId> first;
  for (TaskId id = 0; id < 20; ++id) {
    first.push_back(alloc.place({id, 4}, state));
  }
  alloc.reset();
  for (TaskId id = 0; id < 20; ++id) {
    EXPECT_EQ(alloc.place({id, 4}, state), first[id]);
  }
}

TEST(RandomizedTest, Theorem51BoundOnSteadyWorkload) {
  // max_tau E[L] <= (3 log N / log log N + 1) * L*, estimated over trials.
  const tree::Topology topo(256);
  util::Rng rng(13);
  workload::ClosedLoopParams params;
  params.n_events = 1000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  const auto agg = sim::run_trials(topo, seq, "random",
                                   sim::TrialOptions{.trials = 16, .seed = 1});
  const double bound = util::rand_upper_factor(topo.n_leaves()) *
                       static_cast<double>(agg.optimal_load);
  EXPECT_LE(agg.max_expected_load, bound);
  EXPECT_GE(agg.max_expected_load, static_cast<double>(agg.optimal_load));
}

}  // namespace
}  // namespace partree::core
