// Determinism and replay guarantees across the whole stack.
#include <gtest/gtest.h>

#include <sstream>

#include "adversary/det_adversary.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/campaign.hpp"
#include "workload/trace.hpp"

namespace partree {
namespace {

TEST(ReplayTest, DeterministicAllocatorsReplayExactly) {
  const tree::Topology topo(64);
  util::Rng rng(3);
  const auto seq = workload::make_campaign("steady-mix", topo, rng, 0.5);
  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  for (const char* spec :
       {"greedy", "basic", "optimal", "dmix:d=2", "leftmost", "roundrobin"}) {
    auto a = core::make_allocator(spec, topo);
    auto b = core::make_allocator(spec, topo);
    const auto r1 = engine.run(seq, *a);
    const auto r2 = engine.run(seq, *b);
    EXPECT_EQ(r1.load_series, r2.load_series) << spec;
    EXPECT_EQ(r1.migration_count, r2.migration_count) << spec;
  }
}

TEST(ReplayTest, RandomizedReplaysWithSameSeed) {
  const tree::Topology topo(64);
  util::Rng rng(5);
  const auto seq = workload::make_campaign("small-tasks", topo, rng, 0.5);
  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  auto a = core::make_allocator("random", topo, 1234);
  auto b = core::make_allocator("random", topo, 1234);
  EXPECT_EQ(engine.run(seq, *a).load_series, engine.run(seq, *b).load_series);
}

TEST(ReplayTest, TraceRoundTripPreservesSimulation) {
  const tree::Topology topo(32);
  util::Rng rng(7);
  const auto seq = workload::make_campaign("heavy-tail", topo, rng, 0.3);

  std::stringstream buffer;
  workload::write_trace(seq, buffer);
  const auto loaded = workload::read_trace(buffer);

  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  auto a = core::make_allocator("greedy", topo);
  auto b = core::make_allocator("greedy", topo);
  EXPECT_EQ(engine.run(seq, *a).load_series,
            engine.run(loaded, *b).load_series);
}

TEST(ReplayTest, AdversarialRunSurvivesTraceRoundTrip) {
  // Interactive adversary -> recorded sequence -> CSV -> reload -> replay:
  // the forced load is preserved against the same deterministic algorithm.
  const tree::Topology topo(128);
  adversary::DetAdversary adversary(topo, topo.height());
  auto live_alloc = core::make_allocator("greedy", topo);
  core::TaskSequence recorded;
  sim::Engine engine(topo);
  const auto live = engine.run_interactive(adversary, *live_alloc, &recorded);

  std::stringstream buffer;
  workload::write_trace(recorded, buffer);
  const auto loaded = workload::read_trace(buffer);

  auto replay_alloc = core::make_allocator("greedy", topo);
  const auto replay = engine.run(loaded, *replay_alloc);
  EXPECT_EQ(replay.max_load, live.max_load);
}

TEST(ReplayTest, EngineIsReentrantAcrossTopologies) {
  // One allocator spec, several machines, interleaved runs: no shared
  // state leaks between engines.
  for (const std::uint64_t n : {4ull, 16ull, 64ull}) {
    const tree::Topology topo(n);
    util::Rng rng(n);
    const auto seq = workload::make_campaign("churn", topo, rng, 0.2);
    sim::Engine engine(topo);
    auto alloc = core::make_allocator("dmix:d=1", topo);
    const auto r1 = engine.run(seq, *alloc);
    const auto r2 = engine.run(seq, *alloc);
    EXPECT_EQ(r1.max_load, r2.max_load) << n;
  }
}

}  // namespace
}  // namespace partree
