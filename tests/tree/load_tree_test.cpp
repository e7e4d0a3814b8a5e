#include "tree/load_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace partree::tree {
namespace {

/// Brute-force oracle: per-leaf loads maintained by direct range updates.
class LoadOracle {
 public:
  explicit LoadOracle(Topology topo) : topo_(topo), loads_(topo.n_leaves()) {}

  void assign(NodeId v) { bump(v, +1); }
  void release(NodeId v) { bump(v, -1); }

  std::uint64_t max_load() const {
    return loads_.empty() ? 0 : *std::max_element(loads_.begin(), loads_.end());
  }
  std::uint64_t subtree_max(NodeId v) const {
    std::uint64_t best = 0;
    for (PeId pe = topo_.first_pe(v); pe < topo_.end_pe(v); ++pe) {
      best = std::max(best, loads_[pe]);
    }
    return best;
  }
  std::uint64_t pe_load(PeId pe) const { return loads_[pe]; }

  NodeId min_load_node(std::uint64_t size) const {
    NodeId best = kInvalidNode;
    std::uint64_t best_load = UINT64_MAX;
    for (std::uint64_t i = 0; i < topo_.count_for_size(size); ++i) {
      const NodeId v = topo_.node_for(size, i);
      const std::uint64_t load = subtree_max(v);
      if (load < best_load) {
        best_load = load;
        best = v;
      }
    }
    return best;
  }

 private:
  void bump(NodeId v, int delta) {
    for (PeId pe = topo_.first_pe(v); pe < topo_.end_pe(v); ++pe) {
      loads_[pe] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(loads_[pe]) + delta);
    }
  }

  Topology topo_;
  std::vector<std::uint64_t> loads_;
};

TEST(LoadTreeTest, EmptyTree) {
  LoadTree t{Topology(8)};
  EXPECT_EQ(t.max_load(), 0u);
  EXPECT_EQ(t.total_active_size(), 0u);
  EXPECT_EQ(t.active_tasks(), 0u);
  EXPECT_EQ(t.pe_load(0), 0u);
}

TEST(LoadTreeTest, SingleAssignment) {
  LoadTree t{Topology(8)};
  t.assign(2);  // left half, 4 PEs
  EXPECT_EQ(t.max_load(), 1u);
  EXPECT_EQ(t.total_active_size(), 4u);
  EXPECT_EQ(t.pe_load(0), 1u);
  EXPECT_EQ(t.pe_load(3), 1u);
  EXPECT_EQ(t.pe_load(4), 0u);
}

TEST(LoadTreeTest, OverlappingAssignments) {
  LoadTree t{Topology(8)};
  t.assign(1);   // whole machine
  t.assign(2);   // left half
  t.assign(8);   // leftmost PE
  EXPECT_EQ(t.max_load(), 3u);
  EXPECT_EQ(t.pe_load(0), 3u);
  EXPECT_EQ(t.pe_load(1), 2u);
  EXPECT_EQ(t.pe_load(4), 1u);
}

TEST(LoadTreeTest, ReleaseRestores) {
  LoadTree t{Topology(8)};
  t.assign(2);
  t.assign(2);
  t.release(2);
  EXPECT_EQ(t.max_load(), 1u);
  t.release(2);
  EXPECT_EQ(t.max_load(), 0u);
  EXPECT_EQ(t.total_active_size(), 0u);
}

TEST(LoadTreeTest, SubtreeMax) {
  LoadTree t{Topology(8)};
  t.assign(1);
  t.assign(3);   // right half
  EXPECT_EQ(t.subtree_max(2), 1u);
  EXPECT_EQ(t.subtree_max(3), 2u);
  EXPECT_EQ(t.subtree_max(1), 2u);
  EXPECT_EQ(t.subtree_max(14), 2u);  // leaf in right half
  EXPECT_EQ(t.subtree_max(8), 1u);   // leaf in left half
}

TEST(LoadTreeTest, MinLoadNodeLeftmostTieBreak) {
  LoadTree t{Topology(8)};
  // All empty: the leftmost submachine of each size wins.
  EXPECT_EQ(t.min_load_node(1), 8u);
  EXPECT_EQ(t.min_load_node(2), 4u);
  EXPECT_EQ(t.min_load_node(4), 2u);
  EXPECT_EQ(t.min_load_node(8), 1u);
}

TEST(LoadTreeTest, MinLoadNodeAvoidsLoaded) {
  LoadTree t{Topology(8)};
  t.assign(2);  // left half busy
  EXPECT_EQ(t.min_load_node(4), 3u);
  EXPECT_EQ(t.min_load_node(1), 12u);  // first PE of the right half
}

TEST(LoadTreeTest, MinLoadSeesThroughPartialLoad) {
  LoadTree t{Topology(8)};
  t.assign(8);   // PE 0
  t.assign(9);   // PE 1
  t.assign(12);  // PE 4
  // Size-2 blocks: {0,1} load 1, {2,3} load 0, {4,5} load 1, {6,7} load 0.
  EXPECT_EQ(t.min_load_node(2), 5u);
}

TEST(LoadTreeTest, PeLoadsSnapshot) {
  LoadTree t{Topology(4)};
  t.assign(2);  // PEs {0,1}
  t.assign(4);  // PE 0
  const auto loads = t.pe_loads();
  ASSERT_EQ(loads.size(), 4u);
  EXPECT_EQ(loads[0], 2u);
  EXPECT_EQ(loads[1], 1u);
  EXPECT_EQ(loads[2], 0u);
  EXPECT_EQ(loads[3], 0u);
}

TEST(LoadTreeTest, SingleLeafMachine) {
  LoadTree t{Topology(1)};
  t.assign(1);
  t.assign(1);
  EXPECT_EQ(t.max_load(), 2u);
  EXPECT_EQ(t.min_load_node(1), 1u);
  t.release(1);
  EXPECT_EQ(t.max_load(), 1u);
}

TEST(LoadTreeTest, CheckRecomputesAggregatesAndCatchesCorruptAdd) {
  const Topology topo(16);
  LoadTree t{topo};
  t.assign(2);   // left half
  t.assign(5);   // a quarter inside it
  t.assign(17);  // a single PE on the left
  t.assign(7);   // a quarter on the right
  EXPECT_EQ(t.check(), "");
  t.release(5);
  EXPECT_EQ(t.check(), "");
  // One more task rooted at the leaf, with every aggregate left stale.
  t.debug_corrupt_add(17, 2);
  EXPECT_NE(t.check(), "");
}

TEST(LoadTreeDeathTest, ReleaseWithoutAssign) {
  LoadTree t{Topology(4)};
  EXPECT_DEATH(t.release(2), "release");
}

class LoadTreeRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoadTreeRandomized, MatchesOracleUnderRandomChurn) {
  const std::uint64_t n = GetParam();
  const Topology topo(n);
  LoadTree t{topo};
  LoadOracle oracle{topo};
  util::Rng rng(n * 977 + 5);

  std::vector<NodeId> assigned;
  for (int step = 0; step < 600; ++step) {
    const bool do_assign = assigned.empty() || rng.bernoulli(0.6);
    if (do_assign) {
      const std::uint32_t log =
          static_cast<std::uint32_t>(rng.below(topo.height() + 1));
      const std::uint64_t size = std::uint64_t{1} << log;
      const NodeId v = topo.node_for(size, rng.below(topo.count_for_size(size)));
      t.assign(v);
      oracle.assign(v);
      assigned.push_back(v);
    } else {
      const std::uint64_t pick = rng.below(assigned.size());
      const NodeId v = assigned[pick];
      assigned[pick] = assigned.back();
      assigned.pop_back();
      t.release(v);
      oracle.release(v);
    }

    ASSERT_EQ(t.max_load(), oracle.max_load()) << "step " << step;
    // Spot-check subtree maxima and PE loads.
    const NodeId probe = 1 + rng.below(topo.n_nodes());
    ASSERT_EQ(t.subtree_max(probe), oracle.subtree_max(probe))
        << "node " << probe;
    const PeId pe = rng.below(n);
    ASSERT_EQ(t.pe_load(pe), oracle.pe_load(pe));
    // Greedy query: loads must match (node may differ only on equal load).
    const std::uint32_t qlog =
        static_cast<std::uint32_t>(rng.below(topo.height() + 1));
    const std::uint64_t qsize = std::uint64_t{1} << qlog;
    const NodeId got = t.min_load_node(qsize);
    const NodeId want = oracle.min_load_node(qsize);
    ASSERT_EQ(oracle.subtree_max(got), oracle.subtree_max(want));
    ASSERT_EQ(got, want) << "leftmost tie-break mismatch";
  }
}

// 2^16 and 2^20 run the bounded min_load_node search where it prunes whole
// regions.
INSTANTIATE_TEST_SUITE_P(Sizes, LoadTreeRandomized,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 65536,
                                           1048576));

}  // namespace
}  // namespace partree::tree
