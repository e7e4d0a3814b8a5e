#include "tree/load_tree.hpp"

#include <algorithm>

#include "util/digest.hpp"

namespace partree::tree {

LoadTree::LoadTree(Topology topo)
    : topo_(topo), nodes_(topo.n_nodes() + 1) {
  scratch_.reserve(topo_.height() + 2);
}

void LoadTree::update_path(NodeId v) {
  // Recompute the aggregates from v up to the root; stop as soon as a
  // node's aggregates are unchanged (its ancestors only see this child's
  // aggregates, so nothing above can change either).
  while (true) {
    Node& node = nodes_[v];
    std::uint32_t down = node.add;
    std::uint32_t min = node.add;
    if (!topo_.is_leaf(v)) {
      const Node& l = nodes_[Topology::left(v)];
      const Node& r = nodes_[Topology::right(v)];
      down += std::max(l.down, r.down);
      min += std::min(l.min, r.min);
    }
    if (down == node.down && min == node.min) return;
    node.down = down;
    node.min = min;
    if (v == 1) return;
    v = Topology::parent(v);
  }
}

void LoadTree::assign(NodeId v) {
  PARTREE_ASSERT(topo_.valid(v), "assign to invalid node");
  PARTREE_DEBUG_ASSERT(nodes_[v].add < UINT32_MAX, "task count overflow");
  ++nodes_[v].add;
  active_size_ += topo_.subtree_size(v);
  ++active_tasks_;
  update_path(v);
}

void LoadTree::release(NodeId v) {
  PARTREE_ASSERT(topo_.valid(v), "release of invalid node");
  PARTREE_ASSERT(nodes_[v].add > 0, "release with no task rooted at node");
  --nodes_[v].add;
  active_size_ -= topo_.subtree_size(v);
  --active_tasks_;
  update_path(v);
}

std::uint64_t LoadTree::subtree_max(NodeId v) const {
  PARTREE_ASSERT(topo_.valid(v), "subtree_max of invalid node");
  std::uint64_t prefix = 0;
  for (NodeId u = Topology::parent(v); u >= 1; u = Topology::parent(u)) {
    prefix += nodes_[u].add;
    if (u == 1) break;
  }
  return prefix + nodes_[v].down;
}

std::uint64_t LoadTree::pe_load(PeId pe) const {
  NodeId v = topo_.leaf_node(pe);
  std::uint64_t load = 0;
  while (true) {
    load += nodes_[v].add;
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
    const std::uint64_t here = prefix + nodes_[v].add;
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
  const Node& node = nodes_[v];
  if (levels_left == 0) {
    // Max PE load inside v: ancestor add-sum plus the subtree aggregate.
    const std::uint64_t value = prefix + node.down;
    if (value < best_load) {
      best_load = value;
      best = v;
    }
    return;
  }
  // Every candidate below v holds a PE loaded at least prefix + min[v] and
  // lies right of the incumbent, so it cannot win once that reaches
  // best_load. Left child first so ties resolve to the leftmost
  // submachine; re-check before the right child since the left may have
  // tightened the bound.
  if (prefix + node.min >= best_load) return;
  const std::uint64_t here = prefix + node.add;
  min_load_dfs(Topology::left(v), levels_left - 1, here, best, best_load,
               visits);
  if (prefix + node.min >= best_load) return;
  min_load_dfs(Topology::right(v), levels_left - 1, here, best, best_load,
               visits);
}

NodeId LoadTree::min_load_search(std::uint64_t size,
                                 std::uint64_t& visits) const {
  NodeId best = kInvalidNode;
  std::uint64_t best_load = UINT64_MAX;
  min_load_dfs(Topology::root(), topo_.depth_for_size(size), 0, best,
               best_load, visits);
  PARTREE_ASSERT(best != kInvalidNode, "min_load_node found no candidate");
  return best;
}

NodeId LoadTree::min_load_node(std::uint64_t size) const {
  std::uint64_t visits = 0;
  return min_load_search(size, visits);
}

std::uint64_t LoadTree::min_load_node_visits(std::uint64_t size) const {
  std::uint64_t visits = 0;
  (void)min_load_search(size, visits);
  return visits;
}

std::uint64_t LoadTree::digest() const {
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  for (NodeId v = 1; v <= topo_.n_nodes(); ++v) fnv.mix(nodes_[v].add);
  fnv.mix(nodes_[1].down);
  fnv.mix(active_size_);
  fnv.mix(active_tasks_);
  return fnv.value();
}

std::string LoadTree::check() const {
  std::uint64_t size = 0;
  std::uint64_t tasks = 0;
  // Children before parents, so each node is recomputed from nodes that
  // have already been checked.
  for (NodeId v = topo_.n_nodes(); v >= 1; --v) {
    const Node& node = nodes_[v];
    tasks += node.add;
    size += std::uint64_t{node.add} * topo_.subtree_size(v);
    std::uint32_t down = node.add;
    std::uint32_t min = node.add;
    if (!topo_.is_leaf(v)) {
      const Node& l = nodes_[Topology::left(v)];
      const Node& r = nodes_[Topology::right(v)];
      down += std::max(l.down, r.down);
      min += std::min(l.min, r.min);
    }
    if (node.down != down || node.min != min) {
      return "node " + std::to_string(v) + " (down, min) (" +
             std::to_string(node.down) + ", " + std::to_string(node.min) +
             ") != recomputed (" + std::to_string(down) + ", " +
             std::to_string(min) + ")";
    }
  }
  if (size != active_size_ || tasks != active_tasks_) {
    return "active size/tasks " + std::to_string(active_size_) + "/" +
           std::to_string(active_tasks_) + " != sum over nodes " +
           std::to_string(size) + "/" + std::to_string(tasks);
  }
  return "";
}

void LoadTree::debug_corrupt_add(NodeId v, std::uint64_t count) {
  PARTREE_ASSERT(topo_.valid(v), "invalid node");
  // Aggregates deliberately left stale.
  nodes_[v].add = static_cast<std::uint32_t>(count);
}

}  // namespace partree::tree
