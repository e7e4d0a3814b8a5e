#include "tree/vacancy_tree.hpp"

#include <algorithm>

namespace partree::tree {

VacancyTree::VacancyTree(Topology topo)
    : topo_(topo), nodes_(topo.n_nodes() + 1, 0) {}

std::uint8_t VacancyTree::recompute(NodeId v, std::uint32_t level) const {
  if (nodes_[v] & kOccupied) {
    return static_cast<std::uint8_t>(kOccupied | (level + 1));
  }
  if (level == 0) return 0;
  const std::uint8_t lhs = nodes_[Topology::left(v)] & kDeficit;
  const std::uint8_t rhs = nodes_[Topology::right(v)] & kDeficit;
  // Two fully vacant halves coalesce into one block of v's full size;
  // otherwise v's largest block is its better child's, one class smaller
  // relative to v.
  if ((lhs | rhs) == 0) return 0;
  return static_cast<std::uint8_t>(std::min(lhs, rhs) + 1);
}

void VacancyTree::update_path(NodeId v, std::uint32_t level) {
  // Stop as soon as a node's byte is unchanged: an ancestor only sees
  // this child through nodes_[v], so nothing above can change either.
  for (; v != 0; v = Topology::parent(v), ++level) {
    const std::uint8_t fresh = recompute(v, level);
    if (fresh == nodes_[v]) return;
    nodes_[v] = fresh;
  }
}

NodeId VacancyTree::allocate(std::uint64_t size) {
  PARTREE_ASSERT(util::is_pow2(size) && size <= topo_.n_leaves(),
                 "allocation size must be a power of two <= N");
  PARTREE_ASSERT(can_fit(size), "no vacant submachine of requested size");
  const std::uint32_t target = util::exact_log2(size);
  NodeId v = Topology::root();
  for (std::uint32_t level = topo_.height(); level > target; --level) {
    // Leftmost-fit: descend left whenever the left subtree can hold it. A
    // child at level-1 holds a size-2^target block iff its deficit is at
    // most (level-1) - target.
    const NodeId l = Topology::left(v);
    v = (nodes_[l] & kDeficit) + target < level ? l : Topology::right(v);
    PARTREE_DEBUG_ASSERT((nodes_[v] & kDeficit) + target < level,
                         "vacancy aggregate inconsistent");
  }
  PARTREE_ASSERT(nodes_[v] == 0, "target block not fully vacant");
  nodes_[v] = kOccupied;
  used_ += size;
  update_path(v, target);
  return v;
}

void VacancyTree::release(NodeId v) {
  PARTREE_ASSERT(topo_.valid(v), "release of invalid node");
  PARTREE_ASSERT(occupied(v), "release of unoccupied node");
  // Drop the occupied bit but keep the stale deficit, so update_path sees
  // v's byte change and carries the vacancy up to its ancestors.
  nodes_[v] &= kDeficit;
  used_ -= topo_.subtree_size(v);
  update_path(v, topo_.height() - topo_.depth(v));
}

void VacancyTree::clear() {
  // Post-order walk over the nonzero bytes, with no stack: descend into a
  // nonzero child, and once both children are zero, zero the node and
  // climb to its parent. Below a task every byte is already zero, and a
  // vacant node with a nonzero byte is never a leaf, so each nonzero node
  // is entered once and revisited at most twice.
  NodeId v = nodes_[1] != 0 ? Topology::root() : 0;
  while (v != 0) {
    if ((nodes_[v] & kOccupied) == 0) {
      const NodeId l = Topology::left(v);
      const NodeId r = Topology::right(v);
      if (nodes_[l] != 0) {
        v = l;
        continue;
      }
      if (nodes_[r] != 0) {
        v = r;
        continue;
      }
    }
    nodes_[v] = 0;
    v = Topology::parent(v);
  }
  used_ = 0;
}

std::string VacancyTree::check() const {
  std::uint64_t used = 0;
  // Children before parents, so each byte is recomputed from bytes that
  // have already been checked.
  for (NodeId v = topo_.n_nodes(); v >= 1; --v) {
    const std::uint32_t level = topo_.height() - topo_.depth(v);
    if (nodes_[v] & kOccupied) {
      used += topo_.subtree_size(v);
      if (level > 0 && (nodes_[Topology::left(v)] |
                        nodes_[Topology::right(v)]) != 0) {
        return "node " + std::to_string(v) +
               " holds a task that overlaps a nonzero node below it";
      }
    }
    const std::uint8_t want = recompute(v, level);
    if (nodes_[v] != want) {
      return "node " + std::to_string(v) + " byte " +
             std::to_string(nodes_[v]) + " != recomputed " +
             std::to_string(want);
    }
  }
  if (used != used_) {
    return "used " + std::to_string(used_) + " != sum of occupied sizes " +
           std::to_string(used);
  }
  return "";
}

}  // namespace partree::tree
