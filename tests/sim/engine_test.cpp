#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>

#include "core/event_source.hpp"
#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "tree/load_tree.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

TEST(EngineTest, CountsEvents) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("greedy", topo);
  const auto result = engine.run(core::figure1_sequence(), *alloc);
  EXPECT_EQ(result.events, 7u);
  EXPECT_EQ(result.arrivals, 5u);
  EXPECT_EQ(result.departures, 2u);
  EXPECT_EQ(result.n_pes, 4u);
  EXPECT_EQ(result.allocator, "greedy");
}

TEST(EngineTest, EmptySequence) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("greedy", topo);
  const auto result = engine.run(core::TaskSequence{}, *alloc);
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(result.max_load, 0u);
  EXPECT_EQ(result.optimal_load, 0u);
  EXPECT_DOUBLE_EQ(result.ratio(), 1.0);
}

TEST(EngineTest, SeriesRecording) {
  const tree::Topology topo(4);
  Engine engine(topo, EngineOptions{.record_series = true});
  auto alloc = core::make_allocator("greedy", topo);
  const auto result = engine.run(core::figure1_sequence(), *alloc);
  ASSERT_EQ(result.load_series.size(), 7u);
  EXPECT_EQ(result.load_series[0], 1u);
  EXPECT_EQ(result.load_series.back(), 2u);  // greedy's final load
}

TEST(EngineTest, ResetsAllocatorBetweenRuns) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("basic", topo);
  const auto first = engine.run(core::figure1_sequence(), *alloc);
  const auto second = engine.run(core::figure1_sequence(), *alloc);
  EXPECT_EQ(first.max_load, second.max_load);
}

/// Runs `seq` under dmix:d=1 and returns the result with the number of
/// on_reallocation calls and the summed lengths of the plans they saw.
std::tuple<SimResult, std::uint64_t, std::uint64_t> run_with_hook(
    const tree::Topology& topo, const core::TaskSequence& seq) {
  std::uint64_t calls = 0;
  std::uint64_t moves = 0;
  EngineOptions options;
  options.on_reallocation = [&](std::span<const core::Migration> plan) {
    ++calls;
    moves += plan.size();
  };
  Engine engine(topo, options);
  auto alloc = core::make_allocator("dmix:d=1", topo);
  const SimResult result = engine.run(seq, *alloc);
  return {result, calls, moves};
}

// A plan lists only the tasks its round moves, so the hook sees exactly
// the moves the run counts: one call per round, and plan lengths that sum
// to migration_count.
TEST(EngineTest, ReallocationHookObservesMigrations) {
  const tree::Topology topo(4);
  const auto [result, calls, moves] =
      run_with_hook(topo, core::figure1_sequence());
  EXPECT_EQ(calls, result.reallocation_count);
  EXPECT_EQ(moves, result.migration_count);
}

// Figure 1 at N = 4 has few rounds; a closed loop under churn has many,
// and long plans.
TEST(EngineTest, ReallocationHookSeesEveryPlanUnderChurn) {
  const tree::Topology topo(256);
  util::Rng rng(7);
  workload::ClosedLoopParams params;
  params.n_events = 3000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::geometric(0.5, topo.height());
  const auto [result, calls, moves] =
      run_with_hook(topo, workload::closed_loop(topo, params, rng));
  ASSERT_GT(result.reallocation_count, 10u);
  ASSERT_GT(result.migration_count, result.reallocation_count);
  EXPECT_EQ(calls, result.reallocation_count);
  EXPECT_EQ(moves, result.migration_count);
}

TEST(EngineTest, MigratedSizeCountsOnlyRealMoves) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("optimal", topo);
  core::TaskSequence seq;
  for (int i = 0; i < 4; ++i) (void)seq.arrive(1);
  const auto result = engine.run(seq, *alloc);
  // Packing keeps everything in place: no physical moves.
  EXPECT_EQ(result.migration_count, 0u);
  EXPECT_EQ(result.migrated_size, 0u);
  EXPECT_EQ(result.reallocation_count, 4u);
}

TEST(EngineTest, WallClockRecorded) {
  const tree::Topology topo(16);
  Engine engine(topo);
  auto alloc = core::make_allocator("greedy", topo);
  util::Rng rng(3);
  workload::ClosedLoopParams params;
  params.n_events = 500;
  const auto seq = workload::closed_loop(topo, params, rng);
  const auto result = engine.run(seq, *alloc);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(EngineTest, DebugChecksAcceptConsistentRuns) {
  // debug_checks recompute the load aggregates from scratch after every
  // event; on a correct engine they must be silent for allocators with
  // and without reallocation.
  const tree::Topology topo(16);
  Engine engine(topo, EngineOptions{.debug_checks = true});
  util::Rng rng(11);
  workload::ClosedLoopParams params;
  params.n_events = 300;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);
  for (const char* spec : {"greedy", "dmix:d=1", "optimal", "random"}) {
    auto alloc = core::make_allocator(spec, topo, 3);
    const auto result = engine.run(seq, *alloc);
    EXPECT_GE(result.max_load, result.optimal_load) << spec;
  }
}

// Every count lives on the run's SimResult, so two runs in one process
// each report their own work: the second run of Figure 1 on the same
// engine counts what the first did, not the sum of both.
TEST(EngineTest, CountersAttributedToTheRun) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("dmix:d=1", topo);
  const SimResult first = engine.run(core::figure1_sequence(), *alloc);
  const SimResult second = engine.run(core::figure1_sequence(), *alloc);
  EXPECT_GT(first.reallocation_count, 0u);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.arrivals, first.arrivals);
  EXPECT_EQ(second.reallocation_count, first.reallocation_count);
  EXPECT_EQ(second.migration_count, first.migration_count);
  EXPECT_EQ(second.migrated_size, first.migrated_size);
}

// Emits `n_arrivals` unit arrivals and, right before handing out the last
// one, corrupts the LoadTree's raw add-counts behind the engine's back.
class CorruptingSource final : public core::EventSource {
 public:
  explicit CorruptingSource(std::uint64_t n_arrivals)
      : n_arrivals_(n_arrivals) {}

  [[nodiscard]] std::optional<core::Event> next(
      const core::MachineState& state) override {
    if (emitted_ >= n_arrivals_) return std::nullopt;
    ++emitted_;
    if (emitted_ == n_arrivals_) {
      // The engine owns the state; EventSource::next is the one seam a
      // test can reach it through, hence the const_cast onto the
      // documented TEST-ONLY corruption hook.
      auto& loads = const_cast<tree::LoadTree&>(state.loads());
      loads.debug_corrupt_add(tree::NodeId{state.n_pes()}, 1000);
    }
    return core::Event::arrival(emitted_, 1);
  }

  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

 private:
  std::uint64_t n_arrivals_;
  std::uint64_t emitted_ = 0;
};

// debug_checks throws on the event after the corruption -- here the last
// arrival -- and names the check that failed.
TEST(EngineTest, DebugChecksThrowOnTheCorruptedArrival) {
  constexpr std::uint64_t kArrivals = 200;
  const tree::Topology topo(8);
  Engine engine(topo, EngineOptions{.debug_checks = true});
  auto greedy = core::make_allocator("greedy", topo);
  CorruptingSource source(kArrivals);
  try {
    (void)engine.run_interactive(source, *greedy);
    ADD_FAILURE() << "the corrupted run returned";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(source.emitted(), kArrivals);
    EXPECT_NE(std::string(e.what()).find(
                  "debug check: LoadTree max_load != max over pe_loads"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineDeathTest, InvalidSequenceRejected) {
  const tree::Topology topo(4);
  Engine engine(topo);
  auto alloc = core::make_allocator("greedy", topo);
  core::TaskSequence bad;
  (void)bad.arrive(8);  // larger than the machine
  EXPECT_DEATH((void)engine.run(bad, *alloc), "invalid size");
}

}  // namespace
}  // namespace partree::sim
