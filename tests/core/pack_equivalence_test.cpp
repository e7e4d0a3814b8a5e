// Equivalence pins for the bucketed repack pipeline.
//
// The bucketed pass replaced a comparison sort and claims BYTE-IDENTICAL
// output, because placement order is observable state (the digest goldens
// and detsim differentials depend on it). These property tests pin the
// claim against a reference implementation of the old code path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/packing.hpp"
#include "tree/copy_set.hpp"
#include "util/rng.hpp"

namespace partree::core {
namespace {

std::vector<ActiveTask> random_tasks(util::Rng& rng, std::uint64_t n_leaves,
                                     int count) {
  // Power-of-two multiset with heavy duplication: sizes are drawn from
  // the full class range so every bucket sees ties.
  std::vector<ActiveTask> tasks;
  std::uint64_t classes = 1;
  for (std::uint64_t s = n_leaves; s > 1; s /= 2) ++classes;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(classes);
    tasks.push_back({Task{static_cast<TaskId>(i), size}, tree::kInvalidNode});
  }
  // Shuffle ids relative to positions so input order is adversarial.
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.below(i)]);
  }
  return tasks;
}

/// The pre-bucketing reference: one comparison sort, then per-task
/// first-fit placement -- a transcript of the old pack_tasks_ordered.
std::vector<PackedTask> reference_pack(const tree::Topology& topo,
                                       std::vector<ActiveTask> tasks,
                                       PackOrder order) {
  std::vector<PackedTask> packed;
  packed.reserve(tasks.size());
  for (const ActiveTask& at : tasks) {
    packed.push_back({at.task.id, at.task.size, {}});
  }
  std::sort(packed.begin(), packed.end(),
            [order](const PackedTask& a, const PackedTask& b) {
              switch (order) {
                case PackOrder::kDecreasingSize:
                  if (a.size != b.size) return a.size > b.size;
                  return a.id < b.id;
                case PackOrder::kIncreasingSize:
                  if (a.size != b.size) return a.size < b.size;
                  return a.id < b.id;
                case PackOrder::kArrivalOrder:
                  return a.id < b.id;
              }
              return a.id < b.id;
            });
  tree::CopySet copies(topo);
  for (PackedTask& p : packed) p.placement = copies.place(p.size);
  return packed;
}

class PackEquivalenceTest : public ::testing::TestWithParam<PackOrder> {};

TEST_P(PackEquivalenceTest, BucketedMatchesComparisonSort) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  for (const std::uint64_t n_leaves : {2u, 8u, 64u}) {
    const tree::Topology topo(n_leaves);
    for (int trial = 0; trial < 60; ++trial) {
      const int count = static_cast<int>(rng.below(40));
      const auto tasks = random_tasks(rng, n_leaves, count);
      const auto expected = reference_pack(topo, tasks, GetParam());
      const auto actual = pack_tasks_ordered(topo, tasks, GetParam());
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        ASSERT_EQ(actual[i].id, expected[i].id)
            << "N=" << n_leaves << " trial " << trial << " pos " << i;
        ASSERT_EQ(actual[i].size, expected[i].size);
        ASSERT_EQ(actual[i].placement, expected[i].placement);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PackEquivalenceTest,
                         ::testing::Values(PackOrder::kDecreasingSize,
                                           PackOrder::kIncreasingSize,
                                           PackOrder::kArrivalOrder),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case PackOrder::kDecreasingSize:
                               return "DecreasingSize";
                             case PackOrder::kIncreasingSize:
                               return "IncreasingSize";
                             case PackOrder::kArrivalOrder:
                               return "ArrivalOrder";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace partree::core
