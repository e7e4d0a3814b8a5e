#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::core {
namespace {

TEST(GreedyTest, PicksLeftmostLeastLoaded) {
  const tree::Topology topo(4);
  MachineState state{topo};
  GreedyAllocator greedy;

  EXPECT_EQ(greedy.place({0, 1}, state), 4u);
  state.place({0, 1}, 4);
  EXPECT_EQ(greedy.place({1, 1}, state), 5u);
  state.place({1, 1}, 5);
  EXPECT_EQ(greedy.place({2, 2}, state), 3u);  // right half is empty
  state.place({2, 2}, 3);
  // All PEs loaded once; a size-4 task must stack everywhere.
  EXPECT_EQ(greedy.place({3, 4}, state), 1u);
}

TEST(GreedyTest, Figure1LoadIsTwo) {
  // The paper's worked example: greedy reaches load 2 on sigma*.
  const tree::Topology topo(4);
  sim::Engine engine(topo);
  GreedyAllocator greedy;
  const auto result = engine.run(figure1_sequence(), greedy);
  EXPECT_EQ(result.max_load, 2u);
  EXPECT_EQ(result.optimal_load, 1u);
}

class GreedyBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyBound, Theorem41HoldsOnRandomWorkloads) {
  // Theorem 4.1: load <= ceil((log N + 1)/2) * L*.
  const tree::Topology topo(GetParam());
  const std::uint64_t factor =
      util::ceil_div(topo.height() + std::uint64_t{1}, 2);
  util::Rng rng(GetParam() * 17 + 3);

  for (int trial = 0; trial < 8; ++trial) {
    workload::ClosedLoopParams params;
    params.n_events = 1200;
    params.utilization = 0.5 + 0.1 * (trial % 5);
    params.size = workload::SizeSpec::uniform_log(0, topo.height());
    const TaskSequence seq = workload::closed_loop(topo, params, rng);

    sim::Engine engine(topo);
    GreedyAllocator greedy;
    const auto result = engine.run(seq, greedy);
    EXPECT_LE(result.max_load, factor * result.optimal_load)
        << "N=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedyBound,
                         ::testing::Values(4, 16, 64, 256, 1024));

}  // namespace
}  // namespace partree::core
