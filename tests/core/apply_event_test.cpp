// Tests for core::apply_event, the one event-application path: driving a
// sequence through the step by hand reproduces Engine::run exactly, and
// the step record reports where the task lives (or lived) afterwards.
#include "core/step.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::core {
namespace {

TaskSequence churny_sequence(const tree::Topology& topo, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.utilization = 0.95;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  return workload::closed_loop(topo, params, rng);
}

TEST(ApplyEventTest, HandDrivenStepsMatchEngineRunForEverySpec) {
  const tree::Topology topo(64);
  const TaskSequence seq = churny_sequence(topo, 71);
  std::uint64_t rounds_over_all_specs = 0;
  for (const std::string& spec : known_allocator_specs()) {
    SCOPED_TRACE(spec);
    auto alloc = make_allocator(spec, topo, 5);
    alloc->reset();
    MachineState state(topo);
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t rounds = 0;
    std::uint64_t moves = 0;
    std::uint64_t migrated_size = 0;
    std::uint64_t max_load = 0;
    for (const Event& e : seq.events()) {
      const StepRecord rec = apply_event(state, *alloc, e);
      if (e.kind == EventKind::kArrival) {
        ++arrivals;
      } else {
        ++departures;
      }
      if (rec.reallocated) {
        ++rounds;
        moves += rec.migrations.size();
        migrated_size += rec.migrated_size;
      }
      max_load = std::max(max_load, state.max_load());
    }

    sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
    const sim::SimResult result = engine.run(seq, *alloc);
    EXPECT_EQ(state.digest(), result.final_digest);
    EXPECT_EQ(arrivals, result.arrivals);
    EXPECT_EQ(departures, result.departures);
    EXPECT_EQ(rounds, result.reallocation_count);
    EXPECT_EQ(moves, result.migration_count);
    EXPECT_EQ(migrated_size, result.migrated_size);
    EXPECT_EQ(max_load, result.max_load);
    rounds_over_all_specs += rounds;
  }
  // The reallocating specs must actually have exercised rounds.
  EXPECT_GT(rounds_over_all_specs, 0u);
}

TEST(ApplyEventTest, TriggeringArrivalReportsItsPostRoundNode) {
  // A_C repacks on every arrival, so some arrival is moved by the very
  // round it triggered; the record must name where it ended up.
  const tree::Topology topo(64);
  const TaskSequence seq = churny_sequence(topo, 83);
  auto alloc = make_allocator("optimal", topo);
  MachineState state(topo);
  std::uint64_t moved_by_own_round = 0;
  for (const Event& e : seq.events()) {
    const StepRecord rec = apply_event(state, *alloc, e);
    if (e.kind != EventKind::kArrival) continue;
    ASSERT_EQ(rec.node, state.active_task(e.task.id).node);
    EXPECT_EQ(rec.size, e.task.size);
    for (const Migration& m : rec.migrations) {
      if (m.id == e.task.id) {
        ++moved_by_own_round;
        EXPECT_EQ(rec.node, m.to);
      }
    }
  }
  EXPECT_GT(moved_by_own_round, 0u);
}

// On N = 8 places a size-2 task at node 4 and a size-4 task at node 2;
// once both are active it plans one round that moves task 0 to node 5
// and leaves task 1 where it is.
class ScriptedRoundAllocator final : public Allocator {
 public:
  tree::NodeId place(const Task& task, const MachineState&) override {
    return task.size == 2 ? 4 : 2;
  }
  std::optional<std::vector<Migration>> maybe_reallocate(
      const MachineState& state) override {
    if (state.active_count() < 2) return std::nullopt;
    return std::vector<Migration>{{0, 4, 5}};
  }
  std::string name() const override { return "scripted-round"; }
  void reset() override {}
};

TEST(ApplyEventTest, RoundCountsOnlyPhysicalMoves) {
  const tree::Topology topo(8);
  ScriptedRoundAllocator alloc;
  MachineState state(topo);
  const StepRecord first = apply_event(state, alloc, Event::arrival(0, 2));
  EXPECT_FALSE(first.reallocated);

  const StepRecord second = apply_event(state, alloc, Event::arrival(1, 4));
  ASSERT_TRUE(second.reallocated);
  EXPECT_EQ(second.migrations, (std::vector<Migration>{{0, 4, 5}}));
  EXPECT_EQ(second.migrated_size, 2u);  // task 0's size; task 1 stayed
  EXPECT_EQ(second.node, 2u);
  EXPECT_EQ(state.active_task(0).node, 5u);
}

TEST(ApplyEventTest, DepartureReportsSizeAndNodeItLeft) {
  const tree::Topology topo(16);
  auto alloc = make_allocator("greedy", topo);
  MachineState state(topo);
  apply_event(state, *alloc, Event::arrival(0, 4));
  const StepRecord placed = apply_event(state, *alloc, Event::arrival(1, 2));
  ASSERT_TRUE(state.is_active(1));

  const StepRecord left = apply_event(state, *alloc, Event::departure(1));
  EXPECT_EQ(left.size, 2u);
  EXPECT_EQ(left.node, placed.node);
  EXPECT_FALSE(left.reallocated);
  EXPECT_TRUE(left.migrations.empty());
  EXPECT_FALSE(state.is_active(1));
  EXPECT_EQ(state.active_count(), 1u);
}

}  // namespace
}  // namespace partree::core
