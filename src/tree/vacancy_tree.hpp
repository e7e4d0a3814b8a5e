// Buddy-style occupancy tracking for one "copy" of the machine.
//
// The paper's reallocation procedure A_R and basic algorithm A_B view the
// machine as a stack of identical copies of T in which every PE belongs to
// at most one task. A VacancyTree is one such copy: tasks occupy disjoint
// whole subtrees, and the structure answers "leftmost vacant size-2^x
// submachine" in O(log N) via a largest-vacant-block aggregate.
//
// Each node is one byte whose vacant state is zero. Bit 7 marks a task
// rooted at the node; the low 7 bits hold its deficit: how many size
// classes the node's largest vacant aligned block falls short of the
// node's own size (0 = fully vacant, level+1 = nothing vacant, where a
// leaf has level 0). The nonzero bytes are therefore exactly the occupied
// nodes and their ancestors: a new copy is a zero-filled vector, and
// clear() visits only the paths that tasks hold, not all 2N nodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tree/topology.hpp"

namespace partree::tree {

class VacancyTree {
 public:
  explicit VacancyTree(Topology topo);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Size of the largest fully-vacant aligned submachine. O(1).
  [[nodiscard]] std::uint64_t max_free() const noexcept {
    const std::uint32_t deficit = nodes_[1] & kDeficit;
    return deficit > topo_.height()
               ? 0
               : std::uint64_t{1} << (topo_.height() - deficit);
  }

  /// True iff the whole copy is vacant.
  [[nodiscard]] bool empty() const noexcept { return nodes_[1] == 0; }

  /// Cumulative size of occupied PEs in this copy.
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

  /// Whether a vacant submachine of the given size exists.
  [[nodiscard]] bool can_fit(std::uint64_t size) const {
    PARTREE_DEBUG_ASSERT(util::is_pow2(size), "size must be a power of two");
    return max_free() >= size;
  }

  /// Occupies the leftmost vacant submachine of the given size and returns
  /// its node; requires can_fit(size). O(log N).
  NodeId allocate(std::uint64_t size);

  /// Vacates the submachine rooted at v (must be occupied by allocate).
  void release(NodeId v);

  /// True iff a task is rooted exactly at v.
  [[nodiscard]] bool occupied(NodeId v) const {
    PARTREE_DEBUG_ASSERT(topo_.valid(v), "invalid node");
    return (nodes_[v] & kOccupied) != 0;
  }

  /// Vacates every node. O(occupied * log N): only nonzero bytes are
  /// visited, and those are the occupied nodes and their ancestors.
  void clear();

  /// Recomputes every byte bottom-up from the occupied bits, checks that
  /// no task overlaps another, and that used() is the sum of occupied
  /// sizes. Returns "" when consistent, else a description of the lowest
  /// inconsistent node. O(N).
  [[nodiscard]] std::string check() const;

  /// The bytes are a function of the occupied set alone, so two trees
  /// compare equal iff they hold tasks at the same nodes.
  friend bool operator==(const VacancyTree&, const VacancyTree&) = default;

 private:
  static constexpr std::uint8_t kOccupied = 0x80;
  static constexpr std::uint8_t kDeficit = 0x7F;

  void update_path(NodeId v, std::uint32_t level);
  /// The byte v should hold given its occupied bit and its children's
  /// bytes; `level` is log2 of v's subtree size.
  [[nodiscard]] std::uint8_t recompute(NodeId v, std::uint32_t level) const;

  Topology topo_;
  std::vector<std::uint8_t> nodes_;  // occupied bit | deficit, per node
  std::uint64_t used_ = 0;
};

}  // namespace partree::tree
