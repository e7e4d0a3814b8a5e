#include "tree/vacancy_tree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace partree::tree {
namespace {

TEST(VacancyTreeTest, FreshTreeFullyVacant) {
  VacancyTree t{Topology(8)};
  EXPECT_EQ(t.max_free(), 8u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.used(), 0u);
  EXPECT_TRUE(t.can_fit(8));
  EXPECT_TRUE(t.can_fit(1));
}

TEST(VacancyTreeTest, LeftmostAllocation) {
  VacancyTree t{Topology(8)};
  EXPECT_EQ(t.allocate(2), 4u);  // leftmost size-2 block
  EXPECT_EQ(t.allocate(2), 5u);
  EXPECT_EQ(t.allocate(4), 3u);  // right half
  EXPECT_FALSE(t.can_fit(2));
  EXPECT_EQ(t.max_free(), 0u);
  EXPECT_EQ(t.used(), 8u);
}

TEST(VacancyTreeTest, WholeMachine) {
  VacancyTree t{Topology(4)};
  EXPECT_EQ(t.allocate(4), 1u);
  EXPECT_FALSE(t.can_fit(1));
  t.release(1);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.max_free(), 4u);
}

TEST(VacancyTreeTest, ReleaseMergesBuddies) {
  VacancyTree t{Topology(8)};
  const NodeId a = t.allocate(2);
  const NodeId b = t.allocate(2);
  EXPECT_FALSE(t.can_fit(4) && t.max_free() == 8);  // fragmented
  t.release(a);
  t.release(b);
  EXPECT_EQ(t.max_free(), 8u);  // coalesced back to a full machine
}

TEST(VacancyTreeTest, FragmentationBlocksLargeFits) {
  VacancyTree t{Topology(8)};
  (void)t.allocate(1);          // PE 0
  const NodeId mid = t.allocate(1);  // PE 1
  (void)mid;
  // Left size-2 block fully used; max vacant block is the right half.
  EXPECT_EQ(t.max_free(), 4u);
  EXPECT_EQ(t.allocate(4), 3u);
  EXPECT_EQ(t.max_free(), 2u);  // block {2,3} remains
  EXPECT_EQ(t.allocate(2), 5u);
  EXPECT_FALSE(t.can_fit(1));
}

TEST(VacancyTreeTest, HoleReuse) {
  VacancyTree t{Topology(8)};
  const NodeId a = t.allocate(2);  // block {0,1}
  (void)t.allocate(2);             // block {2,3}
  t.release(a);
  // The hole at the leftmost block is reused first.
  EXPECT_EQ(t.allocate(2), a);
}

TEST(VacancyTreeTest, SizeOneMachine) {
  VacancyTree t{Topology(1)};
  EXPECT_EQ(t.allocate(1), 1u);
  EXPECT_FALSE(t.can_fit(1));
  t.release(1);
  EXPECT_TRUE(t.can_fit(1));
}

TEST(VacancyTreeTest, Clear) {
  VacancyTree t{Topology(4)};
  (void)t.allocate(2);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.max_free(), 4u);

  // clear() walks only the occupied paths, so after random churn it must
  // still leave the whole tree byte-equal to a fresh one.
  const Topology topo(64);
  const VacancyTree fresh{topo};
  VacancyTree churned{topo};
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<NodeId> held;
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t size = std::uint64_t{1} << rng.below(7);
      if (churned.can_fit(size) && (held.empty() || rng.bernoulli(0.6))) {
        held.push_back(churned.allocate(size));
      } else if (!held.empty()) {
        const std::uint64_t pick = rng.below(held.size());
        churned.release(held[pick]);
        held[pick] = held.back();
        held.pop_back();
      }
    }
    churned.clear();
    ASSERT_TRUE(churned == fresh) << "round " << round;
    ASSERT_EQ(churned.check(), "") << "round " << round;
    EXPECT_EQ(churned.used(), 0u);
    for (NodeId v = 1; v <= topo.n_nodes(); ++v) {
      ASSERT_FALSE(churned.occupied(v)) << "round " << round << " node " << v;
    }
  }
}

TEST(VacancyTreeDeathTest, OverAllocate) {
  VacancyTree t{Topology(2)};
  (void)t.allocate(2);
  EXPECT_DEATH((void)t.allocate(1), "no vacant submachine");
}

TEST(VacancyTreeDeathTest, ReleaseUnoccupied) {
  VacancyTree t{Topology(4)};
  EXPECT_DEATH(t.release(2), "unoccupied");
}

TEST(VacancyTreeTest, RandomChurnKeepsInvariants) {
  const Topology topo(64);
  VacancyTree t{topo};
  util::Rng rng(99);
  std::vector<NodeId> held;
  std::uint64_t held_size = 0;

  for (int step = 0; step < 2000; ++step) {
    const std::uint32_t log = static_cast<std::uint32_t>(rng.below(7));
    const std::uint64_t size = std::uint64_t{1} << log;
    if (t.can_fit(size) && (held.empty() || rng.bernoulli(0.55))) {
      const NodeId v = t.allocate(size);
      ASSERT_EQ(topo.subtree_size(v), size);
      // No overlap with currently held blocks.
      for (const NodeId other : held) {
        ASSERT_FALSE(topo.contains(other, v) || topo.contains(v, other))
            << "overlapping allocation at step " << step;
      }
      held.push_back(v);
      held_size += size;
    } else if (!held.empty()) {
      const std::uint64_t pick = rng.below(held.size());
      const NodeId v = held[pick];
      held[pick] = held.back();
      held.pop_back();
      held_size -= topo.subtree_size(v);
      t.release(v);
    }
    ASSERT_EQ(t.used(), held_size);
    ASSERT_LE(t.max_free(), topo.n_leaves() - held_size);
    ASSERT_EQ(t.check(), "") << "step " << step;
  }
}

}  // namespace
}  // namespace partree::tree
