// Load accounting over the tree machine.
//
// Each active task occupies one whole subtree; the load of a PE is the
// number of active tasks whose subtree contains it. We therefore store, per
// node, the number of tasks rooted exactly there (`add`) plus two classic
// aggregates of the root-to-leaf add-sums below v:
//
//   down[v] = add[v] + max(down[left(v)], down[right(v)])      (internal)
//   min[v]  = add[v] + min(min[left(v)], min[right(v)])        (internal)
//   down[leaf] = min[leaf] = add[leaf]
//
// which makes assign/release an O(log N) leaf-to-root path update, gives the
// machine-wide maximum load as down[root], and the maximum and minimum PE
// loads inside submachine v as prefix(v) + down[v] and prefix(v) + min[v],
// where prefix sums `add` over strict ancestors. The leftmost minimum-load
// submachine query (greedy A_G) is an exact DFS over the target level that
// skips every subtree whose least-loaded PE cannot beat the incumbent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tree/topology.hpp"

namespace partree::tree {

class LoadTree {
 public:
  explicit LoadTree(Topology topo);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Adds one task rooted at node v. O(log N).
  void assign(NodeId v);

  /// Removes one task rooted at node v (one must be present). O(log N).
  void release(NodeId v);

  /// Maximum PE load over the whole machine. O(1).
  [[nodiscard]] std::uint64_t max_load() const noexcept {
    return nodes_[1].down;
  }

  /// Maximum PE load within the submachine of v. O(log N).
  [[nodiscard]] std::uint64_t subtree_max(NodeId v) const;

  /// Load of a single PE. O(log N).
  [[nodiscard]] std::uint64_t pe_load(PeId pe) const;

  /// Loads of every PE, left to right. O(N).
  [[nodiscard]] std::vector<std::uint64_t> pe_loads() const;

  /// Leftmost submachine of the given size whose maximum PE load is
  /// minimal (the greedy A_G target). Exact branch-and-bound DFS: a subtree
  /// is skipped once its least-loaded PE is no lighter than the incumbent,
  /// so a region of equally loaded candidates costs one descent, not a
  /// scan. Allocation-free (recursive DFS, depth at most log N).
  [[nodiscard]] NodeId min_load_node(std::uint64_t size) const;

  /// Nodes that min_load_node(size) visits on the current loads, the
  /// measure of its pruning: on an empty or evenly covered machine it
  /// stays within 2 log N + 2 instead of growing with the N / size
  /// candidates.
  [[nodiscard]] std::uint64_t min_load_node_visits(std::uint64_t size) const;

  /// Sum over PEs of their load == total size of active tasks. O(1).
  [[nodiscard]] std::uint64_t total_active_size() const noexcept {
    return active_size_;
  }

  /// Number of active (assigned, unreleased) tasks. O(1).
  [[nodiscard]] std::uint64_t active_tasks() const noexcept {
    return active_tasks_;
  }

  /// Canonical 64-bit state digest: FNV-1a over the per-node task counts
  /// (positional, index order -- the tree is a positional structure) plus
  /// the maintained aggregates, so a digest mismatch flags either a
  /// different occupancy or drifted incremental aggregates. O(N).
  [[nodiscard]] std::uint64_t digest() const;

  /// Recomputes `down` and `min` bottom-up from `add`, plus the active
  /// totals, and compares them with the maintained values. digest() cannot stand in for this: it mixes only
  /// `add` and the root's `down`, so a drifted interior aggregate passes
  /// it. Returns "" when consistent, else the first mismatch. O(N).
  [[nodiscard]] std::string check() const;

  /// TEST-ONLY fault injection: overwrites the task count rooted at v
  /// without touching any aggregate, leaving the tree internally
  /// inconsistent on purpose so the invariant net (EngineOptions::
  /// debug_checks, which throws sim::InvariantViolation) can be exercised
  /// against a genuinely corrupted tree. Never call outside tests.
  void debug_corrupt_add(NodeId v, std::uint64_t count);

 private:
  // Per-node counts and aggregates in one 12-byte record. 32 bits suffice:
  // every count is bounded by the number of active tasks, which never
  // approaches 2^32. An all-zero record is consistent for both
  // aggregates, so a fresh tree needs no build pass.
  struct Node {
    std::uint32_t add = 0;
    std::uint32_t down = 0;
    std::uint32_t min = 0;
  };
  static_assert(sizeof(Node) == 12);

  void update_path(NodeId v);
  // min_load_node's DFS from the root; adds the nodes it visits to
  // `visits`.
  [[nodiscard]] NodeId min_load_search(std::uint64_t size,
                                       std::uint64_t& visits) const;
  void min_load_dfs(NodeId v, std::uint32_t levels_left, std::uint64_t prefix,
                    NodeId& best, std::uint64_t& best_load,
                    std::uint64_t& visits) const;

  struct Frame {
    NodeId node;
    std::uint64_t prefix;
  };

  Topology topo_;
  std::vector<Node> nodes_;
  std::uint64_t active_size_ = 0;
  std::uint64_t active_tasks_ = 0;
  // Reused DFS stack for pe_loads; cleared, never shrunk, so steady-state
  // queries allocate nothing.
  mutable std::vector<Frame> scratch_;
};

}  // namespace partree::tree
