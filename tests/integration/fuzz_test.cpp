// Differential fuzzing: random valid sequences drive pairs of components
// that must agree (or obey an ordering), across many seeds.
#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree {
namespace {

// Per-test seed derivation: each test body draws its seed from its own
// split of an Rng keyed by the suite parameter. The old GetParam()+offset
// scheme handed different tests overlapping windows of one linear seed
// space, so adjacent parameters (and adjacent tests) ran correlated
// SplitMix64-seeded streams; splitting gives independent streams and a
// single number to replay. Assertion failures log it via SCOPED_TRACE.
std::uint64_t stream_seed(std::uint64_t param, std::uint64_t stream) {
  util::Rng rng(param);
  util::Rng child = rng.split();
  for (std::uint64_t s = 0; s < stream; ++s) child = rng.split();
  return child();
}

core::TaskSequence fuzz_sequence(const tree::Topology& topo,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ClosedLoopParams params;
  params.n_events = 200 + rng.below(800);
  params.utilization = 0.3 + 0.65 * rng.uniform01();
  switch (rng.below(3)) {
    case 0:
      params.size = workload::SizeSpec::uniform_log(0, topo.height());
      break;
    case 1:
      params.size = workload::SizeSpec::geometric(0.5, topo.height());
      break;
    default:
      params.size = workload::SizeSpec::zipf_log(1.1, topo.height());
      break;
  }
  return workload::closed_loop(topo, params, rng);
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, DmixZeroEqualsOptimalSeries) {
  const std::uint64_t seed = stream_seed(GetParam(), 0);
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
  const tree::Topology topo(64);
  const auto seq = fuzz_sequence(topo, seed);
  sim::Engine engine(topo, sim::EngineOptions{.record_series = true,
                                              .record_digests = true});
  auto optimal = core::make_allocator("optimal", topo);
  auto dmix0 = core::make_allocator("dmix:d=0", topo);
  const auto want = engine.run(seq, *optimal);
  const auto got = engine.run(seq, *dmix0);
  EXPECT_EQ(want.load_series, got.load_series);
  EXPECT_EQ(want.epoch_digests, got.epoch_digests);
  EXPECT_EQ(want.final_digest, got.final_digest);
}

TEST_P(FuzzSeeds, RandmixZeroMatchesOptimalLoad) {
  // d = 0 repacks on every arrival, erasing the random placement before
  // measurement: the load series must equal A_C's even though the
  // transient placements differ.
  const std::uint64_t seed = stream_seed(GetParam(), 2);
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
  const tree::Topology topo(32);
  const auto seq = fuzz_sequence(topo, seed);
  sim::Engine engine(topo, sim::EngineOptions{.record_series = true});
  auto optimal = core::make_allocator("optimal", topo);
  auto randmix = core::make_allocator("randmix:d=0", topo, seed);
  EXPECT_EQ(engine.run(seq, *optimal).load_series,
            engine.run(seq, *randmix).load_series);
}

TEST_P(FuzzSeeds, EveryAllocatorRespectsOptimalFloor) {
  // debug_checks re-derives the LoadTree aggregates (max over pe_loads,
  // sum of active sizes) after every event, so this doubles as the engine
  // invariant property test across every allocator.
  const std::uint64_t seed = stream_seed(GetParam(), 3);
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
  const tree::Topology topo(64);
  const auto seq = fuzz_sequence(topo, seed);
  sim::Engine engine(topo, sim::EngineOptions{.debug_checks = true});
  for (const std::string& spec : core::known_allocator_specs()) {
    auto alloc = core::make_allocator(spec, topo, seed);
    const auto result = engine.run(seq, *alloc);
    EXPECT_GE(result.max_load, result.optimal_load) << spec;
  }
}

TEST_P(FuzzSeeds, SlowdownNeverExceedsMaxLoad) {
  const std::uint64_t seed = stream_seed(GetParam(), 4);
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
  const tree::Topology topo(64);
  const auto seq = fuzz_sequence(topo, seed);
  sim::EngineOptions options;
  options.record_slowdowns = true;
  sim::Engine engine(topo, options);
  for (const char* spec : {"greedy", "basic", "dmix:d=1", "random"}) {
    auto alloc = core::make_allocator(spec, topo, seed);
    const auto result = engine.run(seq, *alloc);
    EXPECT_LE(result.worst_slowdown, result.max_load) << spec;
    for (const std::uint64_t s : result.task_slowdowns) {
      ASSERT_GE(s, 1u) << spec;
    }
  }
}

TEST_P(FuzzSeeds, TheoremBoundsHold) {
  const std::uint64_t seed = stream_seed(GetParam(), 5);
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
  const tree::Topology topo(128);
  const auto seq = fuzz_sequence(topo, seed);
  sim::Engine engine(topo);

  auto greedy = core::make_allocator("greedy", topo);
  const auto g = engine.run(seq, *greedy);
  EXPECT_LE(g.max_load,
            util::det_upper_factor(128, 0, true) * g.optimal_load);

  auto basic = core::make_allocator("basic", topo);
  const auto b = engine.run(seq, *basic);
  EXPECT_LE(b.max_load, util::ceil_div(seq.total_arrival_size(), 128));

  for (const std::uint64_t d : {1ull, 2ull, 3ull}) {
    auto dmix = core::make_allocator("dmix:d=" + std::to_string(d), topo);
    const auto r = engine.run(seq, *dmix);
    EXPECT_LE(r.max_load, util::det_upper_factor(128, d) * r.optimal_load)
        << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ScaleSmokeTest, LargeMachineFastPaths) {
  // N = 2^14 with ~20k events through the bounded greedy query and the
  // O(log N) copy paths; completes in well under a second if the
  // structures scale.
  const tree::Topology topo(std::uint64_t{1} << 14);
  util::Rng rng(99);
  workload::ClosedLoopParams params;
  params.n_events = 20000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::geometric(0.6, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::Engine engine(topo);
  for (const char* spec : {"greedy", "basic", "dmix:d=2", "random"}) {
    auto alloc = core::make_allocator(spec, topo, 7);
    const auto result = engine.run(seq, *alloc);
    EXPECT_GE(result.max_load, result.optimal_load) << spec;
    EXPECT_LT(result.wall_seconds, 5.0) << spec;
  }
}

}  // namespace
}  // namespace partree
