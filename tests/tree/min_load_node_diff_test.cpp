// Differential test: LoadTree::min_load_node (pruned DFS over the `down`
// and `min` aggregates) against a brute-force oracle that recomputes every
// candidate submachine's max PE load from raw per-PE loads. The DFS is the
// greedy allocator's hot path, so this guards it against behavior drift:
// 1,000 randomized assign/release schedules across N in {4, 16, 64, 256},
// checking every submachine size after every mutation. The pruning pins
// bound the nodes it visits (LoadTree::min_load_node_visits).
#include "tree/load_tree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace partree::tree {
namespace {

// Leftmost submachine of `size` minimizing max PE load, straight from the
// definition: O(N * levels) per call, no shared state with the DFS.
NodeId oracle_min_load_node(const LoadTree& tree, std::uint64_t size) {
  const Topology& topo = tree.topology();
  const std::vector<std::uint64_t> loads = tree.pe_loads();
  NodeId best = kInvalidNode;
  std::uint64_t best_load = UINT64_MAX;
  for (const NodeId v : topo.nodes_of_size(size)) {
    std::uint64_t window_max = 0;
    for (PeId pe = topo.first_pe(v); pe < topo.end_pe(v); ++pe) {
      window_max = std::max(window_max, loads[pe]);
    }
    if (window_max < best_load) {
      best_load = window_max;
      best = v;
    }
  }
  return best;
}

void run_schedule(std::uint64_t n, std::uint64_t seed, std::uint64_t n_ops) {
  const Topology topo(n);
  LoadTree tree(topo);
  util::Rng rng(seed);
  std::vector<NodeId> active;

  for (std::uint64_t op = 0; op < n_ops; ++op) {
    if (!active.empty() && rng.uniform01() < 0.4) {
      const std::size_t idx =
          static_cast<std::size_t>(rng.below(active.size()));
      tree.release(active[idx]);
      active[idx] = active.back();
      active.pop_back();
    } else {
      const std::uint64_t size = std::uint64_t{1}
                                 << rng.below(topo.height() + 1);
      const NodeId node = topo.node_for(
          size, rng.below(topo.count_for_size(size)));
      tree.assign(node);
      active.push_back(node);
    }

    for (std::uint32_t level = 0; level <= topo.height(); ++level) {
      const std::uint64_t size = std::uint64_t{1} << level;
      ASSERT_EQ(tree.min_load_node(size), oracle_min_load_node(tree, size))
          << "N=" << n << " seed=" << seed << " op=" << op
          << " size=" << size;
    }
  }
}

TEST(MinLoadNodeDiffTest, MatchesOracleOverRandomSchedules) {
  // 250 schedules per machine size = 1,000 schedules total.
  for (const std::uint64_t n : {4ull, 16ull, 64ull, 256ull}) {
    for (std::uint64_t schedule = 0; schedule < 250; ++schedule) {
      run_schedule(n, n * 1000 + schedule, 40);
    }
  }
}

TEST(MinLoadNodeDiffTest, VisitCounterAdvancesPerQuery) {
  const Topology topo(64);
  const LoadTree tree(topo);
  // A size-64 query answers at the root (1 visit); a size-1 query visits
  // at least one node per level on the way down.
  EXPECT_EQ(tree.min_load_node_visits(64), 1u);
  EXPECT_GE(tree.min_load_node_visits(1), topo.height() + 1u);
}

TEST(MinLoadNodeDiffTest, PrunedSearchVisitsFewNodesWhenBalanced) {
  // On an empty machine every candidate ties at load 0; the DFS must
  // prune to the leftmost path rather than enumerate all N leaves.
  const Topology topo(256);
  const LoadTree tree(topo);
  EXPECT_EQ(tree.min_load_node(1), topo.leaf_node(0));
  EXPECT_LE(tree.min_load_node_visits(1), 2u * topo.height() + 2u);
}

TEST(MinLoadNodeDiffTest, PrunedSearchSkipsCoveredSubtrees) {
  // Unit tasks cover PEs 0 .. 3071. Every covered subtree's least-loaded
  // PE ties the first candidate found, so the search skips each of them
  // whole and reaches PE 3072 in two descents instead of scanning the
  // covered leaves.
  const Topology topo(4096);
  LoadTree tree(topo);
  for (PeId pe = 0; pe < 3072; ++pe) tree.assign(topo.leaf_node(pe));
  EXPECT_EQ(tree.min_load_node(1), topo.leaf_node(3072));
  EXPECT_LE(tree.min_load_node_visits(1), 2u * topo.height() + 2u);
}

}  // namespace
}  // namespace partree::tree
