// An ordered stack of machine copies: the substrate of A_R and A_B.
//
// Copies are ordered by creation time; a placement request scans copies in
// order and takes the leftmost vacant block in the first copy that fits
// (creating a fresh copy when none fits). Physically, a task placed in copy
// k at node v occupies subtree v of the real machine; copies are pure
// bookkeeping that cap the machine's maximum load by the copy count.
//
// Placement is indexed, not scanned: a copy's largest vacant aligned block
// is always 0 or a power of two, so the set keeps cumulative per-level
// bitsets fits_[j] = "copies whose largest vacant block is >= 2^j". A
// first-fit query for a (power-of-two) size 2^j is then one word read per
// 64 copies -- O(ceil(C/64)) instead of O(C) pointer chases over C live
// copies -- and an update moves a copy across |delta level| words with no
// allocation.
//
// Storage is one vector of VacancyTrees behind a copy count: trees
// [0, copy_count()) are the copies, and the trees past the count are
// vacant and wait for the next new copy. A copy that drains to empty keeps
// its (now all-zero) tree in place, so issued CopyPlacements stay valid;
// trailing empty copies are dropped by lowering the count. clear() costs
// what the copies hold -- O(tasks * log N), not O(N) per copy -- because
// a VacancyTree resets by walking only its occupied paths.
//
// The set keeps as many trees as the largest copy count it has ever held.
// place() appends a copy only when no copy fits, and an empty copy always
// fits, so at every append every earlier copy holds a task: the largest
// copy count is also the largest number of nonempty copies ever held.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tree/vacancy_tree.hpp"

namespace partree::tree {

/// Location of a task inside a CopySet.
struct CopyPlacement {
  std::uint64_t copy = 0;       ///< copy index at placement time
  NodeId node = kInvalidNode;   ///< subtree root within the machine

  friend bool operator==(const CopyPlacement&, const CopyPlacement&) = default;
};

/// Copy-selection policy. The paper's A_B/A_R use first-fit, and Lemma
/// 2's proof depends on it (its Claim 1 fails under best-fit); the
/// best-fit variant exists for the ab4 ablation.
enum class CopyFit : std::uint8_t {
  kFirstFit,  ///< first copy (creation order) that can hold the block
  kBestFit,   ///< copy with the smallest sufficient vacant block
};

class CopySet {
 public:
  explicit CopySet(Topology topo, CopyFit fit = CopyFit::kFirstFit);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  /// Number of copies currently in existence (>= 1 after first placement).
  [[nodiscard]] std::uint64_t copy_count() const noexcept { return count_; }

  /// Number of copies currently holding at least one task. An interior
  /// copy whose tasks all departed keeps its index but not this count, so
  /// this is what tracks live usage under churn. O(copies).
  [[nodiscard]] std::uint64_t live_copy_count() const;

  /// First-fit placement: first copy with a vacant block of `size`,
  /// leftmost block within it. Creates a new copy when none fits.
  [[nodiscard]] CopyPlacement place(std::uint64_t size);

  /// True iff `placement` names a copy with a task rooted exactly at its
  /// node -- i.e. a placement this set handed out and still holds. Used
  /// by allocator debug checks to audit external placement maps.
  [[nodiscard]] bool occupied(const CopyPlacement& placement) const;

  /// Releases a previous placement. A copy that drains to empty keeps its
  /// index and behaves like a fully vacant copy; trailing empty copies are
  /// dropped (search order over the remaining copies is unchanged, so
  /// behaviour is identical to keeping them).
  void remove(const CopyPlacement& placement);

  /// Total occupied PE count across copies. O(1).
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

  void clear();

  /// Canonical 64-bit state digest. Copies are an ordered stack, so copy
  /// indices are mixed in order; WITHIN a copy the occupied subtree roots
  /// form a set and fold commutatively. An empty copy mixes a single 0,
  /// and trailing-empty discard is deterministic, so behaviourally equal
  /// sets digest equal. O(copies * N).
  [[nodiscard]] std::uint64_t digest() const;

  /// Recomputes every maintained aggregate (used_, per-copy ranks, fits_
  /// bitset membership) from the ground-truth occupancy and compares;
  /// runs VacancyTree::check() on every copy and requires every tree past
  /// the copy count to equal a fresh tree (one with stale bytes would
  /// corrupt the next copy built on it). Returns "" when consistent, else
  /// a description of the first inconsistency. O(trees * N). The engine's
  /// debug_checks net calls this through Allocator::debug_check_state for
  /// CopySet-backed allocators.
  [[nodiscard]] std::string check() const;

  /// TEST-ONLY fault injection: overwrites the cumulative used-PE count
  /// without touching any copy, leaving the set internally inconsistent on
  /// purpose so check() and the engine's debug_checks net can be
  /// exercised. Never call outside tests/fault injection.
  void debug_corrupt_used(std::uint64_t used);

 private:
  /// Rank of a max_free value: 0 for a full copy, exact_log2 + 1 for the
  /// power-of-two free sizes. A copy belongs to fits_[j] iff j < rank.
  [[nodiscard]] static std::uint32_t rank_of(std::uint64_t max_free);
  /// Moves copy k's fits_ membership from its recorded rank to the one
  /// matching its current max_free (flips |delta| words).
  void reindex(std::uint64_t k);
  void set_rank(std::uint64_t k, std::uint32_t from, std::uint32_t to);

  Topology topo_;
  CopyFit fit_;
  /// [0, count_) are the copies; the rest are all-zero trees kept for the
  /// next new copy.
  std::vector<VacancyTree> trees_;
  std::uint64_t count_ = 0;
  std::vector<std::uint32_t> copy_rank_;  // current fits_ rank per copy
  /// Cumulative per-level bitsets over copy ids, stored word-major in one
  /// flat array: word w of level j lives at fits_[w * n_levels_ + j], and
  /// bit k%64 of word k/64 is set iff copy k's largest vacant block is
  /// >= 2^j. Word-major keeps one 64-copy stripe contiguous, so a new
  /// stripe is one resize.
  std::vector<std::uint64_t> fits_;
  std::uint32_t n_levels_;                // height+1 (levels 0..height)
  std::uint64_t used_ = 0;
};

}  // namespace partree::tree
