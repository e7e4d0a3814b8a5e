#include "tree/load_tree.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/digest.hpp"

namespace partree::tree {

LoadTree::LoadTree(Topology topo)
    : topo_(topo),
      add_(topo.n_nodes() + 1, 0),
      down_(topo.n_nodes() + 1, 0) {
  scratch_.reserve(topo_.height() + 2);
}

void LoadTree::update_path(NodeId v) {
  // Recompute `down` from v up to the root; stop as soon as a node's
  // aggregate is unchanged (its ancestors only see `down` of this child,
  // so nothing above can change either).
  while (true) {
    const std::uint64_t below =
        topo_.is_leaf(v) ? 0 : std::max(down_[Topology::left(v)],
                                        down_[Topology::right(v)]);
    const std::uint64_t fresh = add_[v] + below;
    if (fresh == down_[v]) return;
    down_[v] = fresh;
    if (v == 1) return;
    v = Topology::parent(v);
  }
}

void LoadTree::assign(NodeId v) {
  PARTREE_ASSERT(topo_.valid(v), "assign to invalid node");
  ++add_[v];
  active_size_ += topo_.subtree_size(v);
  ++active_tasks_;
  update_path(v);
}

void LoadTree::release(NodeId v) {
  PARTREE_ASSERT(topo_.valid(v), "release of invalid node");
  PARTREE_ASSERT(add_[v] > 0, "release with no task rooted at node");
  --add_[v];
  active_size_ -= topo_.subtree_size(v);
  --active_tasks_;
  update_path(v);
}

std::uint64_t LoadTree::subtree_max(NodeId v) const {
  PARTREE_ASSERT(topo_.valid(v), "subtree_max of invalid node");
  std::uint64_t prefix = 0;
  for (NodeId u = Topology::parent(v); u >= 1; u = Topology::parent(u)) {
    prefix += add_[u];
    if (u == 1) break;
  }
  return prefix + down_[v];
}

std::uint64_t LoadTree::pe_load(PeId pe) const {
  NodeId v = topo_.leaf_node(pe);
  std::uint64_t load = 0;
  while (true) {
    load += add_[v];
    if (v == 1) break;
    v = Topology::parent(v);
  }
  return load;
}

std::vector<std::uint64_t> LoadTree::pe_loads() const {
  // One DFS carrying the ancestor add-sum; O(N) total. The stack is the
  // tree-owned scratch buffer, so only the returned vector allocates.
  std::vector<std::uint64_t> loads(topo_.n_leaves(), 0);
  scratch_.clear();
  scratch_.push_back({Topology::root(), 0});
  while (!scratch_.empty()) {
    const auto [v, prefix] = scratch_.back();
    scratch_.pop_back();
    const std::uint64_t here = prefix + add_[v];
    if (topo_.is_leaf(v)) {
      loads[v - topo_.n_leaves()] = here;
    } else {
      scratch_.push_back({Topology::right(v), here});
      scratch_.push_back({Topology::left(v), here});
    }
  }
  return loads;
}

void LoadTree::min_load_dfs(NodeId v, std::uint32_t levels_left,
                            std::uint64_t prefix, NodeId& best,
                            std::uint64_t& best_load,
                            std::uint64_t& visits) const {
  ++visits;
  if (levels_left == 0) {
    // Max PE load inside v: ancestor add-sum plus the subtree aggregate.
    const std::uint64_t value = prefix + down_[v];
    if (value < best_load) {
      best_load = value;
      best = v;
    }
    return;
  }
  const std::uint64_t here = prefix + add_[v];
  if (here >= best_load) return;  // cannot beat the incumbent
  // Left child first so ties resolve to the leftmost submachine; re-check
  // the bound before the right child since the left may have tightened it.
  min_load_dfs(Topology::left(v), levels_left - 1, here, best, best_load,
               visits);
  if (here >= best_load) return;
  min_load_dfs(Topology::right(v), levels_left - 1, here, best, best_load,
               visits);
}

NodeId LoadTree::min_load_node(std::uint64_t size) const {
  const std::uint32_t target_depth = topo_.depth_for_size(size);
  NodeId best = kInvalidNode;
  std::uint64_t best_load = UINT64_MAX;

  // DFS with branch-and-bound pruning: the max load of any target-level
  // node below v is at least the add-sum of its ancestors (prefix), so
  // subtrees with prefix >= best cannot improve on an already-found
  // candidate. Recursion depth is at most log N; no allocation per query.
  std::uint64_t visits = 0;
  min_load_dfs(Topology::root(), target_depth, 0, best, best_load, visits);
  obs::record_value(obs::ValueMetric::kMinLoadNodeVisits, visits);
  PARTREE_ASSERT(best != kInvalidNode, "min_load_node found no candidate");
  return best;
}

void LoadTree::clear() {
  std::fill(add_.begin(), add_.end(), 0);
  std::fill(down_.begin(), down_.end(), 0);
  active_size_ = 0;
  active_tasks_ = 0;
}

std::uint64_t LoadTree::digest() const {
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  for (NodeId v = 1; v <= topo_.n_nodes(); ++v) fnv.mix(add_[v]);
  fnv.mix(down_[1]);
  fnv.mix(active_size_);
  fnv.mix(active_tasks_);
  return fnv.value();
}

void LoadTree::debug_corrupt_add(NodeId v, std::uint64_t count) {
  PARTREE_ASSERT(topo_.valid(v), "invalid node");
  add_[v] = count;  // aggregates deliberately left stale
}

}  // namespace partree::tree
