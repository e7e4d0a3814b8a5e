#include "tree/copy_set.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace partree::tree {
namespace {

TEST(CopySetTest, FirstPlacementCreatesCopy) {
  CopySet cs{Topology(4)};
  EXPECT_EQ(cs.copy_count(), 0u);
  const CopyPlacement p = cs.place(2);
  EXPECT_EQ(cs.copy_count(), 1u);
  EXPECT_EQ(p.copy, 0u);
  EXPECT_EQ(p.node, 2u);
}

TEST(CopySetTest, FillsFirstCopyBeforeCreatingSecond) {
  CopySet cs{Topology(4)};
  (void)cs.place(2);
  (void)cs.place(2);
  EXPECT_EQ(cs.copy_count(), 1u);
  const CopyPlacement p = cs.place(1);
  EXPECT_EQ(p.copy, 1u);
  EXPECT_EQ(cs.copy_count(), 2u);
}

TEST(CopySetTest, FirstFitPrefersEarlierCopies) {
  CopySet cs{Topology(4)};
  const CopyPlacement a = cs.place(4);  // fills copy 0
  const CopyPlacement b = cs.place(2);  // copy 1
  (void)b;
  cs.remove(a);                         // copy 0 now empty again
  const CopyPlacement c = cs.place(1);
  EXPECT_EQ(c.copy, 0u);
}

TEST(CopySetTest, TrailingEmptyCopiesTrimmed) {
  CopySet cs{Topology(4)};
  const CopyPlacement a = cs.place(4);
  const CopyPlacement b = cs.place(4);
  EXPECT_EQ(cs.copy_count(), 2u);
  cs.remove(b);
  EXPECT_EQ(cs.copy_count(), 1u);
  cs.remove(a);
  EXPECT_EQ(cs.copy_count(), 0u);
}

TEST(CopySetTest, MiddleEmptyCopyRetained) {
  CopySet cs{Topology(4)};
  const CopyPlacement a = cs.place(4);
  const CopyPlacement b = cs.place(4);
  (void)b;
  cs.remove(a);  // copy 0 empty but copy 1 occupied: both retained
  EXPECT_EQ(cs.copy_count(), 2u);
  // Next placement reuses the empty earlier copy.
  EXPECT_EQ(cs.place(2).copy, 0u);
}

TEST(CopySetTest, UsedTracksTotal) {
  CopySet cs{Topology(8)};
  const CopyPlacement a = cs.place(4);
  (void)cs.place(2);
  EXPECT_EQ(cs.used(), 6u);
  cs.remove(a);
  EXPECT_EQ(cs.used(), 2u);
}

TEST(CopySetTest, Clear) {
  CopySet cs{Topology(4)};
  (void)cs.place(2);
  cs.clear();
  EXPECT_EQ(cs.copy_count(), 0u);
  EXPECT_EQ(cs.used(), 0u);
}

TEST(CopySetTest, CopyCountMatchesCeilBound) {
  // Lemma 2's invariant: with total placed size S (no departures), the
  // number of copies is at most ceil(S/N).
  const Topology topo(16);
  CopySet cs{topo};
  util::Rng rng(5);
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t size = std::uint64_t{1}
                               << rng.below(topo.height() + 1);
    (void)cs.place(size);
    total += size;
    ASSERT_LE(cs.copy_count(), (total + 15) / 16) << "after " << i + 1;
  }
}

TEST(CopySetTest, ReclaimsInteriorEmptyCopies) {
  const Topology topo(8);
  CopySet cs{topo};
  const CopyPlacement a = cs.place(8);
  const CopyPlacement b = cs.place(8);
  const CopyPlacement c = cs.place(8);
  (void)a;
  EXPECT_EQ(cs.copy_count(), 3u);
  EXPECT_EQ(cs.live_copy_count(), 3u);

  // Draining an interior copy keeps its index (placements in later copies
  // stay valid) and its tree, but drops it from the live count.
  cs.remove(b);
  EXPECT_EQ(cs.copy_count(), 3u);
  EXPECT_EQ(cs.live_copy_count(), 2u);
  EXPECT_EQ(cs.used(), 16u);

  // The drained copy is refilled before any new copy is created, at the
  // same index, exactly like the fully vacant copy it is.
  const CopyPlacement d = cs.place(4);
  EXPECT_EQ(d.copy, 1u);
  EXPECT_EQ(cs.live_copy_count(), 3u);

  // Removing from a refilled copy still works and dropping trailing
  // empty copies shrinks the stack through interior empties.
  cs.remove(c);
  EXPECT_EQ(cs.copy_count(), 2u);
  cs.remove(d);
  EXPECT_EQ(cs.copy_count(), 1u);
  EXPECT_EQ(cs.live_copy_count(), 1u);
}

TEST(CopySetTest, ClearRecyclesStorageWithoutBehaviorChange) {
  // clear() keeps the trees it empties for the next copies; a cleared set
  // must stay indistinguishable from a freshly constructed one.
  const Topology topo(8);
  CopySet recycled{topo};
  for (int i = 0; i < 9; ++i) (void)recycled.place(2);  // 3 copies
  EXPECT_EQ(recycled.copy_count(), 3u);
  recycled.clear();
  CopySet fresh{topo};
  EXPECT_EQ(recycled.digest(), fresh.digest());
  EXPECT_EQ(recycled.copy_count(), 0u);
  EXPECT_EQ(recycled.used(), 0u);
  EXPECT_EQ(recycled.check(), "");
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recycled.place(4), fresh.place(4)) << "placement " << i;
  }
  EXPECT_EQ(recycled.digest(), fresh.digest());
  EXPECT_EQ(recycled.check(), "");
}

TEST(CopySetTest, LiveCopiesTrackUsageUnderChurn) {
  // Regression for unbounded interior-empty accumulation: under sustained
  // arrival/departure churn with long-lived stragglers, the live copy
  // count must track what the active tasks actually need -- at least
  // ceil(used/N) by pigeonhole, at most one copy per active task -- and a
  // full drain must return the stack to zero copies.
  for (const CopyFit fit : {CopyFit::kFirstFit, CopyFit::kBestFit}) {
    const Topology topo(16);
    CopySet cs{topo, fit};
    util::Rng rng(321);
    std::vector<CopyPlacement> held;
    std::uint64_t held_size = 0;
    for (int step = 0; step < 4000; ++step) {
      if (held.empty() || rng.bernoulli(0.5)) {
        const std::uint64_t size = std::uint64_t{1}
                                   << rng.below(topo.height() + 1);
        held.push_back(cs.place(size));
        held_size += size;
      } else {
        const std::uint64_t pick = rng.below(held.size());
        cs.remove(held[pick]);
        held_size -= topo.subtree_size(held[pick].node);
        held[pick] = held.back();
        held.pop_back();
      }
      ASSERT_EQ(cs.used(), held_size);
      ASSERT_LE(cs.live_copy_count(), cs.copy_count());
      ASSERT_LE(cs.live_copy_count(), held.size());
      ASSERT_GE(cs.live_copy_count() * topo.n_leaves(), held_size);
    }
    while (!held.empty()) {
      cs.remove(held.back());
      held.pop_back();
    }
    EXPECT_EQ(cs.copy_count(), 0u);
    EXPECT_EQ(cs.live_copy_count(), 0u);
    EXPECT_EQ(cs.used(), 0u);
  }
}

TEST(CopySetTest, RandomChurnInvariant) {
  const Topology topo(32);
  CopySet cs{topo};
  util::Rng rng(123);
  std::vector<CopyPlacement> held;
  std::uint64_t held_size = 0;
  for (int step = 0; step < 3000; ++step) {
    if (held.empty() || rng.bernoulli(0.55)) {
      const std::uint64_t size = std::uint64_t{1}
                                 << rng.below(topo.height() + 1);
      held.push_back(cs.place(size));
      held_size += size;
    } else {
      const std::uint64_t pick = rng.below(held.size());
      cs.remove(held[pick]);
      held_size -= topo.subtree_size(held[pick].node);
      held[pick] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(cs.used(), held_size);
    // Copies never exceed what the active total strictly requires plus
    // fragmentation slack of one block per copy boundary; a loose sanity
    // bound: used <= copies * N.
    ASSERT_LE(held_size, cs.copy_count() * topo.n_leaves());
  }
}

}  // namespace
}  // namespace partree::tree
