#include "core/rand_realloc.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "sim/trials.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::core {
namespace {

TEST(RandReallocTest, NameAndFlags) {
  const tree::Topology topo(16);
  RandomizedReallocAllocator alloc(topo, 2, 7);
  EXPECT_EQ(alloc.name(), "randmix(d=2)");
}

TEST(RandReallocTest, FactorySpec) {
  const tree::Topology topo(16);
  EXPECT_EQ(make_allocator("randmix:d=3", topo)->name(), "randmix(d=3)");
  EXPECT_THROW((void)make_allocator("randmix", topo), std::invalid_argument);
}

TEST(RandReallocTest, PlacementsAreValid) {
  const tree::Topology topo(32);
  MachineState state{topo};
  RandomizedReallocAllocator alloc(topo, 2, 3);
  for (TaskId id = 0; id < 100; ++id) {
    const std::uint64_t size = std::uint64_t{1} << (id % 6);
    const tree::NodeId node = alloc.place({id, size}, state);
    ASSERT_EQ(topo.subtree_size(node), size);
  }
}

TEST(RandReallocTest, DZeroIsOptimal) {
  // With d = 0 the repack fires on every arrival: random placement is
  // erased before the load is measured, so it matches A_C exactly.
  const tree::Topology topo(16);
  util::Rng rng(5);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.utilization = 0.85;
  params.size = workload::SizeSpec::uniform_log(0, 4);
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  auto alloc = make_allocator("randmix:d=0", topo, 11);
  const auto result = engine.run(seq, *alloc);
  EXPECT_EQ(result.max_load, result.optimal_load);
}

TEST(RandReallocTest, ReallocationBeatsPureRandom) {
  // The future-work combination: randmix(d=1) should land between A_M and
  // pure random; at minimum it must improve on pure random on a
  // fragmenting workload.
  const tree::Topology topo(256);
  util::Rng rng(9);
  workload::ClosedLoopParams params;
  params.n_events = 3000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::fixed_size(1);
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  const auto pure = sim::run_trials(topo, seq, "random",
                                    sim::TrialOptions{.trials = 8, .seed = 1});
  const auto mixed = sim::run_trials(topo, seq, "randmix:d=1",
                                     sim::TrialOptions{.trials = 8, .seed = 1});
  EXPECT_LT(mixed.expected_max_load, pure.expected_max_load);
}

TEST(RandReallocTest, ReallocCountMatchesDmix) {
  // Same trigger discipline as the deterministic A_M: the reallocation
  // count depends only on the arrival volume, not on the random bits.
  const tree::Topology topo(64);
  util::Rng rng(13);
  workload::ClosedLoopParams params;
  params.n_events = 1500;
  params.utilization = 0.8;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  auto dmix = make_allocator("dmix:d=2", topo);
  auto randmix = make_allocator("randmix:d=2", topo, 21);
  EXPECT_EQ(engine.run(seq, *dmix).reallocation_count,
            engine.run(seq, *randmix).reallocation_count);
}

TEST(RandReallocTest, ChurnReallocationRoundsStayConsistent) {
  // Churn mirror of the drealloc frequency test, driven through the
  // same repack_into round as A_M: sustained arrivals + departures
  // with reallocation rounds firing throughout, under the engine's
  // debug_checks net so every round's state is audited; MachineState
  // aborts on a self-move, so every entry of a plan is a real move.
  const tree::Topology topo(64);
  util::Rng rng(23);
  workload::ClosedLoopParams params;
  params.n_events = 2000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo, sim::EngineOptions{.debug_checks = true});
  auto alloc = make_allocator("randmix:d=1", topo, 31);
  const auto result = engine.run(seq, *alloc);
  EXPECT_GT(result.reallocation_count, 10u);
  EXPECT_GT(result.migration_count, 0u);
}

TEST(RandReallocTest, ScratchReuseIsDeterministicAcrossRounds) {
  // The recycled scratch (buckets, CopySet, migration buffer) must not
  // leak state between rounds: two engine runs over the same sequence
  // with the same seed replay identical series AND identical migration
  // accounting.
  const tree::Topology topo(32);
  util::Rng rng(29);
  workload::ClosedLoopParams params;
  params.n_events = 800;
  params.utilization = 0.85;
  params.size = workload::SizeSpec::uniform_log(0, 4);
  const TaskSequence seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  auto alloc = make_allocator("randmix:d=1", topo, 37);
  const auto r1 = engine.run(seq, *alloc);
  const auto r2 = engine.run(seq, *alloc);
  EXPECT_EQ(r1.load_series, r2.load_series);
  EXPECT_EQ(r1.migration_count, r2.migration_count);
  EXPECT_EQ(r1.migrated_size, r2.migrated_size);
}

TEST(RandReallocTest, ResetReplays) {
  const tree::Topology topo(16);
  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  util::Rng rng(17);
  workload::ClosedLoopParams params;
  params.n_events = 300;
  const TaskSequence seq = workload::closed_loop(topo, params, rng);
  auto alloc = make_allocator("randmix:d=1", topo, 5);
  const auto r1 = engine.run(seq, *alloc);
  const auto r2 = engine.run(seq, *alloc);  // engine resets the allocator
  EXPECT_EQ(r1.load_series, r2.load_series);
}

}  // namespace
}  // namespace partree::core
