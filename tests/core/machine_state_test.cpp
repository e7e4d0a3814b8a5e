#include "core/machine_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace partree::core {
namespace {

TEST(MachineStateTest, PlaceAndRemove) {
  MachineState m{tree::Topology(8)};
  // kInvalidTask is the task table's empty-slot key: never active.
  EXPECT_FALSE(m.is_active(kInvalidTask));
  m.place({0, 4}, 2);
  EXPECT_TRUE(m.is_active(0));
  EXPECT_FALSE(m.is_active(kInvalidTask));
  EXPECT_EQ(m.active_count(), 1u);
  EXPECT_EQ(m.max_load(), 1u);
  EXPECT_EQ(m.active_size(), 4u);
  EXPECT_EQ(m.remove(0), 2u);
  EXPECT_FALSE(m.is_active(0));
  EXPECT_EQ(m.max_load(), 0u);
}

TEST(MachineStateTest, PeakPersistsAfterDepartures) {
  MachineState m{tree::Topology(4)};
  m.place({0, 4}, 1);
  m.place({1, 4}, 1);
  EXPECT_EQ(m.peak_active_size(), 8u);
  EXPECT_EQ(m.optimal_load(), 2u);
  m.remove(0);
  m.remove(1);
  EXPECT_EQ(m.peak_active_size(), 8u);
  EXPECT_EQ(m.optimal_load(), 2u);
}

TEST(MachineStateTest, MigrationMovesLoad) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  m.place({1, 4}, 2);
  EXPECT_EQ(m.max_load(), 2u);
  m.migrate({{1, 2, 3}});
  EXPECT_EQ(m.max_load(), 1u);
  EXPECT_EQ(m.active_task(1).node, 3u);
}

TEST(MachineStateTest, ActiveTasksSnapshot) {
  MachineState m{tree::Topology(8)};
  m.place({0, 2}, 4);
  m.place({1, 4}, 3);
  const auto tasks = m.active_tasks();
  EXPECT_EQ(tasks.size(), 2u);
}

// remove() swap-removes from the dense task array: the last task moves
// into the hole, and both lookup and iteration must follow it.
TEST(MachineStateTest, SwapRemoveKeepsTheMovedTaskReachable) {
  MachineState m{tree::Topology(8)};
  m.place({10, 1}, 8);
  m.place({11, 2}, 5);
  m.place({12, 4}, 3);
  m.place({13, 1}, 15);  // last in the array
  EXPECT_EQ(m.remove(11), 5u);  // a middle task: 13 moves into its slot
  EXPECT_FALSE(m.is_active(11));
  ASSERT_TRUE(m.is_active(13));
  EXPECT_EQ(m.active_task(13).node, 15u);
  EXPECT_EQ(m.active_task(13).task.size, 1u);
  m.migrate({{13, 15, 14}});
  EXPECT_EQ(m.active_task(13).node, 14u);
  EXPECT_EQ(m.active_task(10).node, 8u);
  EXPECT_EQ(m.active_task(12).node, 3u);

  std::vector<std::pair<TaskId, tree::NodeId>> seen;
  m.for_each_active([&seen](const ActiveTask& at) {
    seen.emplace_back(at.task.id, at.node);
  });
  std::sort(seen.begin(), seen.end());
  const std::vector<std::pair<TaskId, tree::NodeId>> expected{
      {10, 8}, {12, 3}, {13, 14}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(m.active_count(), 3u);
  EXPECT_EQ(m.active_size(), 6u);

  // Removing the last task needs no move; the rest stay reachable.
  EXPECT_EQ(m.remove(13), 14u);
  EXPECT_EQ(m.remove(10), 8u);
  EXPECT_EQ(m.active_task(12).node, 3u);
  EXPECT_EQ(m.remove(12), 3u);
  EXPECT_EQ(m.active_count(), 0u);
  EXPECT_EQ(m.max_load(), 0u);
}

TEST(MachineStateTest, PeLoads) {
  MachineState m{tree::Topology(4)};
  m.place({0, 4}, 1);
  m.place({1, 2}, 2);
  const auto loads = m.pe_loads();
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_EQ(loads[0], 2u);
  EXPECT_EQ(loads[1], 2u);
  EXPECT_EQ(loads[2], 1u);
  EXPECT_EQ(loads[3], 1u);
}

TEST(MachineStateDeathTest, RejectsSizeMismatch) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH(m.place({0, 2}, 2), "size does not match");
}

TEST(MachineStateDeathTest, RejectsInvalidSize) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH(m.place({0, 3}, 2), "violates model");
}

TEST(MachineStateDeathTest, RejectsDuplicateId) {
  MachineState m{tree::Topology(8)};
  m.place({0, 1}, 8);
  EXPECT_DEATH(m.place({0, 1}, 9), "already active");
}

TEST(MachineStateDeathTest, RejectsPlacingTheReservedId) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH(m.place({kInvalidTask, 1}, 8), "placing invalid task id");
}

TEST(MachineStateDeathTest, RejectsUnknownRemoval) {
  MachineState m{tree::Topology(8)};
  EXPECT_DEATH((void)m.remove(3), "not active");
}

TEST(MachineStateDeathTest, RejectsStaleMigrationSource) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  EXPECT_DEATH(m.migrate({{0, 3, 2}}), "does not match current placement");
}

// A plan lists only the tasks that move, so a self-move is a planner bug.
TEST(MachineStateDeathTest, RejectsSelfMigration) {
  MachineState m{tree::Topology(8)};
  m.place({0, 2}, 4);
  EXPECT_DEATH(m.migrate({{0, 4, 4}}), "self-move");
}

TEST(MachineStateDeathTest, RejectsWrongSizeMigrationTarget) {
  MachineState m{tree::Topology(8)};
  m.place({0, 4}, 2);
  EXPECT_DEATH(m.migrate({{0, 2, 4}}), "target size mismatch");
}

}  // namespace
}  // namespace partree::core
