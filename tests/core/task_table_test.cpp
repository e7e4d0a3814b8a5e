#include "core/task_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace partree::core {
namespace {

// Every entry of the oracle is found with its value, and the table holds
// nothing else.
void expect_matches(const TaskTable<std::uint64_t>& table,
                    const std::unordered_map<TaskId, std::uint64_t>& oracle) {
  ASSERT_EQ(table.size(), oracle.size());
  for (const auto& [id, value] : oracle) {
    const std::uint64_t* found = table.find(id);
    ASSERT_NE(found, nullptr) << "id " << id;
    EXPECT_EQ(*found, value) << "id " << id;
  }
  std::size_t visited = 0;
  table.for_each([&](TaskId id, std::uint64_t value) {
    ++visited;
    const auto it = oracle.find(id);
    ASSERT_NE(it, oracle.end()) << "stray id " << id;
    EXPECT_EQ(it->second, value);
  });
  EXPECT_EQ(visited, oracle.size());
  EXPECT_LE(2 * table.size(), table.capacity());
}

// Ids whose home slot (at the table's current capacity) is `home`.
std::vector<TaskId> ids_with_home(const TaskTable<std::uint64_t>& table,
                                  std::size_t home, std::size_t count) {
  std::vector<TaskId> ids;
  for (TaskId id = 0; ids.size() < count; ++id) {
    if (table.home_slot(id) == home) ids.push_back(id);
  }
  return ids;
}

TEST(TaskTableTest, EmptyTableFindsNothing) {
  TaskTable<std::uint64_t> table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kInvalidTask), nullptr);
  EXPECT_FALSE(table.erase(0));
  EXPECT_FALSE(table.erase(kInvalidTask));
}

// kInvalidTask marks an empty slot, so a lookup of it must not match one.
TEST(TaskTableTest, ReservedIdIsNeverFound) {
  TaskTable<std::uint64_t> table;
  for (TaskId id = 0; id < 5; ++id) ASSERT_TRUE(table.insert(id, id));
  EXPECT_EQ(table.find(kInvalidTask), nullptr);
  EXPECT_FALSE(table.erase(kInvalidTask));
  EXPECT_EQ(table.size(), 5u);
}

TEST(TaskTableTest, InsertFindEraseAndDuplicates) {
  TaskTable<std::uint64_t> table;
  EXPECT_TRUE(table.insert(7, 70));
  EXPECT_FALSE(table.insert(7, 71));  // present: unchanged
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(*table.find(7), 70u);
  *table.find(7) = 72;
  EXPECT_EQ(*table.find(7), 72u);
  EXPECT_TRUE(table.erase(7));
  EXPECT_FALSE(table.erase(7));
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_TRUE(table.insert(7, 73));  // an erased id can come back
  EXPECT_EQ(*table.find(7), 73u);
}

// Ids sharing one home slot form a single probe run; erasing from its
// middle must keep the later ones reachable (backward shift, no
// tombstones).
TEST(TaskTableTest, IdsSharingAHomeSlotSurviveErasesFromTheRun) {
  TaskTable<std::uint64_t> table;
  table.reserve(64);
  const std::size_t capacity = table.capacity();
  const std::vector<TaskId> ids = ids_with_home(table, 5, 8);
  std::unordered_map<TaskId, std::uint64_t> oracle;
  for (const TaskId id : ids) {
    ASSERT_TRUE(table.insert(id, id * 3));
    oracle.emplace(id, id * 3);
  }
  expect_matches(table, oracle);
  for (const std::size_t k : {3u, 0u, 7u, 4u}) {
    ASSERT_TRUE(table.erase(ids[k]));
    oracle.erase(ids[k]);
    expect_matches(table, oracle);
  }
  EXPECT_EQ(table.capacity(), capacity);
}

// A run that starts at the last slot wraps to slot 0; erases in it must
// shift entries back across the wrap.
TEST(TaskTableTest, ErasesWrapPastTheLastSlot) {
  TaskTable<std::uint64_t> table;
  table.reserve(64);
  const std::size_t last = table.capacity() - 1;
  std::vector<TaskId> ids = ids_with_home(table, last, 4);
  for (const TaskId id : ids_with_home(table, 0, 2)) ids.push_back(id);
  for (const TaskId id : ids_with_home(table, last - 1, 2)) ids.push_back(id);
  std::unordered_map<TaskId, std::uint64_t> oracle;
  for (const TaskId id : ids) {
    ASSERT_TRUE(table.insert(id, id + 1));
    oracle.emplace(id, id + 1);
  }
  expect_matches(table, oracle);
  for (const TaskId id : ids) {
    ASSERT_TRUE(table.erase(id));
    oracle.erase(id);
    expect_matches(table, oracle);
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(TaskTableTest, StridedIdsDoNotCluster) {
  TaskTable<std::uint64_t> table;
  std::unordered_map<TaskId, std::uint64_t> oracle;
  constexpr TaskId kStride = TaskId{1} << 20;
  for (TaskId k = 0; k < 4096; ++k) {
    ASSERT_TRUE(table.insert(k * kStride, k));
    oracle.emplace(k * kStride, k);
  }
  expect_matches(table, oracle);
  // Multiplicative hashing spreads the stride: no home slot is shared by
  // more than a handful of ids (a plain mask would put them all in one).
  std::vector<int> per_home(table.capacity(), 0);
  int worst = 0;
  for (TaskId k = 0; k < 4096; ++k) {
    worst = std::max(worst, ++per_home[table.home_slot(k * kStride)]);
  }
  EXPECT_LE(worst, 8);
  for (TaskId k = 0; k < 4096; k += 2) {
    ASSERT_TRUE(table.erase(k * kStride));
    oracle.erase(k * kStride);
  }
  expect_matches(table, oracle);
}

TEST(TaskTableTest, GrowsAcrossSeveralDoublings) {
  TaskTable<std::uint64_t> table;
  std::unordered_map<TaskId, std::uint64_t> oracle;
  std::vector<std::size_t> capacities;
  for (TaskId id = 0; id < 5000; ++id) {
    ASSERT_TRUE(table.insert(id, ~id));
    oracle.emplace(id, ~id);
    if (capacities.empty() || capacities.back() != table.capacity()) {
      capacities.push_back(table.capacity());
    }
  }
  expect_matches(table, oracle);
  ASSERT_GE(capacities.size(), 8u);
  for (std::size_t i = 1; i < capacities.size(); ++i) {
    EXPECT_EQ(capacities[i], 2 * capacities[i - 1]);
  }
}

TEST(TaskTableTest, ReserveSizesOnce) {
  TaskTable<std::uint64_t> table;
  table.reserve(1000);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity, 2000u);
  for (TaskId id = 0; id < 1000; ++id) ASSERT_TRUE(table.insert(id, id));
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(TaskTableTest, ClearEmptiesAndKeepsCapacity) {
  TaskTable<std::uint64_t> table;
  for (TaskId id = 0; id < 300; ++id) ASSERT_TRUE(table.insert(id, id));
  const std::size_t capacity = table.capacity();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity);
  for (TaskId id = 0; id < 300; ++id) EXPECT_EQ(table.find(id), nullptr);
  std::size_t visited = 0;
  table.for_each([&](TaskId, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  for (TaskId id = 0; id < 300; ++id) ASSERT_TRUE(table.insert(id, id + 9));
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(*table.find(299), 308u);
}

// 200k random operations against std::unordered_map. Ids come from a
// small dense window (so erases and re-inserts hit live probe runs), with
// some strided ids mixed in; the table is cleared twice along the way.
TEST(TaskTableTest, RandomOperationsMatchUnorderedMap) {
  util::Rng rng(20261018);
  TaskTable<std::uint64_t> table;
  std::unordered_map<TaskId, std::uint64_t> oracle;
  constexpr int kOps = 200000;
  for (int op = 0; op < kOps; ++op) {
    const TaskId id = rng.below(4) == 0
                          ? rng.below(256) << 20
                          : rng.below(2048);
    const std::uint64_t kind = rng.below(10);
    if (kind < 4) {
      const std::uint64_t value = rng.below(1'000'000);
      const bool inserted = oracle.emplace(id, value).second;
      ASSERT_EQ(table.insert(id, value), inserted) << "op " << op;
    } else if (kind < 7) {
      ASSERT_EQ(table.erase(id), oracle.erase(id) == 1) << "op " << op;
    } else {
      const std::uint64_t* found = table.find(id);
      const auto it = oracle.find(id);
      ASSERT_EQ(found != nullptr, it != oracle.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "op " << op;
      }
    }
    ASSERT_EQ(table.size(), oracle.size()) << "op " << op;
    if (op == kOps / 3 || op == 2 * kOps / 3) {
      const std::size_t capacity = table.capacity();
      table.clear();
      oracle.clear();
      ASSERT_EQ(table.capacity(), capacity);
    }
    if (op % 20000 == 0) expect_matches(table, oracle);
  }
  expect_matches(table, oracle);
}

TEST(TaskTableDeathTest, InsertRejectsTheReservedId) {
  TaskTable<std::uint64_t> table;
  EXPECT_DEATH(table.insert(kInvalidTask, 1), "reserved kInvalidTask");
}

}  // namespace
}  // namespace partree::core
