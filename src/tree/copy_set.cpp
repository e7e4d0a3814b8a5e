#include "tree/copy_set.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/digest.hpp"
#include "util/math.hpp"

namespace partree::tree {

CopySet::CopySet(Topology topo, CopyFit fit)
    : topo_(topo), fit_(fit), n_levels_(topo.height() + 1) {}

std::uint64_t CopySet::live_copy_count() const {
  return static_cast<std::uint64_t>(
      std::count_if(trees_.begin(),
                    trees_.begin() + static_cast<std::ptrdiff_t>(count_),
                    [](const VacancyTree& t) { return !t.empty(); }));
}

std::uint32_t CopySet::rank_of(std::uint64_t max_free) {
  if (max_free == 0) return 0;
  PARTREE_DEBUG_ASSERT(util::is_pow2(max_free),
                       "copy max_free must be 0 or a power of two");
  return util::exact_log2(max_free) + 1;
}

void CopySet::set_rank(std::uint64_t k, std::uint32_t from, std::uint32_t to) {
  // fits_[j] holds copy k iff j < rank, so moving the rank flips exactly
  // the levels between the old and new value.
  const std::uint64_t mask = std::uint64_t{1} << (k % 64);
  std::uint64_t* stripe = fits_.data() + (k / 64) * n_levels_;
  for (std::uint32_t j = to; j < from; ++j) stripe[j] &= ~mask;
  for (std::uint32_t j = from; j < to; ++j) stripe[j] |= mask;
}

void CopySet::reindex(std::uint64_t k) {
  const std::uint32_t fresh = rank_of(trees_[k].max_free());
  if (fresh == copy_rank_[k]) return;
  set_rank(k, copy_rank_[k], fresh);
  copy_rank_[k] = fresh;
}

CopyPlacement CopySet::place(std::uint64_t size) {
  PARTREE_DEBUG_ASSERT(size > 0 && util::is_pow2(size),
                       "placement size must be a power of two");
  const std::uint32_t level = util::exact_log2(size);
  const std::uint64_t n_words = (count_ + 63) / 64;
  std::uint64_t best = UINT64_MAX;
  if (fit_ == CopyFit::kFirstFit) {
    // First copy (creation order) whose largest vacant block fits: the
    // lowest set bit of the cumulative level-`level` bitset -- one word
    // read per 64-copy stripe.
    for (std::uint64_t w = 0; w < n_words; ++w) {
      const std::uint64_t word = fits_[w * n_levels_ + level];
      if (word != 0) {
        best = w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
        break;
      }
    }
  } else {
    // Best fit: the copy whose largest vacant block is the tightest
    // sufficient one (earliest copy on ties). Free values are exact powers
    // of two, so the tightest class at level j is "fits 2^j but not
    // 2^(j+1)"; scan classes from tightest to loosest.
    for (std::uint32_t j = level; j < n_levels_ && best == UINT64_MAX; ++j) {
      for (std::uint64_t w = 0; w < n_words; ++w) {
        std::uint64_t word = fits_[w * n_levels_ + j];
        if (j + 1 < n_levels_) word &= ~fits_[w * n_levels_ + j + 1];
        if (word != 0) {
          best = w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
          break;
        }
      }
    }
  }

  if (best == UINT64_MAX) {
    // No copy fits, so none is empty: append one, on a waiting tree when
    // there is one. Its rank starts at 0 and reindex below sets it.
    best = count_++;
    if (best == trees_.size()) trees_.emplace_back(topo_);
    copy_rank_.push_back(0);
    if (best % 64 == 0) fits_.resize(fits_.size() + n_levels_, 0);
  }

  const NodeId node = trees_[best].allocate(size);
  used_ += size;
  reindex(best);
  return {best, node};
}

bool CopySet::occupied(const CopyPlacement& placement) const {
  return placement.copy < count_ &&
         trees_[placement.copy].occupied(placement.node);
}

void CopySet::remove(const CopyPlacement& placement) {
  PARTREE_ASSERT(placement.copy < count_, "remove from nonexistent copy");
  trees_[placement.copy].release(placement.node);
  used_ -= topo_.subtree_size(placement.node);
  reindex(placement.copy);
  // A drained tree is all zero, so a trailing empty copy leaves the stack
  // by lowering the count and waits there for the next new copy.
  while (count_ > 0 && trees_[count_ - 1].empty()) {
    const std::uint64_t k = --count_;
    set_rank(k, copy_rank_[k], 0);
    if (k % 64 == 0) fits_.resize(fits_.size() - n_levels_);
    copy_rank_.pop_back();
  }
}

std::uint64_t CopySet::digest() const {
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  fnv.mix(count_);
  for (std::uint64_t k = 0; k < count_; ++k) {
    fnv.mix(k);
    const VacancyTree& copy = trees_[k];
    if (copy.empty()) {
      fnv.mix(0);
      continue;
    }
    // Occupied subtree roots form a set; fold commutatively so the digest
    // does not depend on enumeration order.
    std::uint64_t occupancy = 0;
    for (NodeId v = 1; v <= topo_.n_nodes(); ++v) {
      if (copy.occupied(v)) {
        occupancy = util::commutative_add(occupancy, util::element_digest(v));
      }
    }
    fnv.mix(occupancy);
    fnv.mix(copy.used());
  }
  fnv.mix(used_);
  return fnv.value();
}

std::string CopySet::check() const {
  if (count_ > trees_.size() || copy_rank_.size() != count_) {
    return "copy count " + std::to_string(count_) +
           " does not match the trees or ranks held";
  }
  std::uint64_t used = 0;
  for (std::uint64_t k = 0; k < count_; ++k) {
    const std::string tree = trees_[k].check();
    if (!tree.empty()) return "copy " + std::to_string(k) + ": " + tree;
    used += trees_[k].used();
    const std::uint32_t want_rank = rank_of(trees_[k].max_free());
    if (copy_rank_[k] != want_rank) {
      return "copy " + std::to_string(k) + " rank " +
             std::to_string(copy_rank_[k]) + " != recomputed " +
             std::to_string(want_rank);
    }
    for (std::uint32_t j = 0; j < n_levels_; ++j) {
      const bool bit =
          (fits_[(k / 64) * n_levels_ + j] >> (k % 64)) & 1ULL;
      if (bit != (j < want_rank)) {
        return "copy " + std::to_string(k) + " fits_ bit at level " +
               std::to_string(j) + " disagrees with rank";
      }
    }
  }
  if (count_ < trees_.size()) {
    const VacancyTree fresh(topo_);
    for (std::uint64_t k = count_; k < trees_.size(); ++k) {
      if (trees_[k] != fresh) {
        return "tree " + std::to_string(k) +
               " past the copy count is not a fresh tree";
      }
    }
  }
  if (fits_.size() != (count_ + 63) / 64 * n_levels_) {
    return "fits_ word count does not match copy count";
  }
  if (used != used_) {
    return "used " + std::to_string(used_) + " != sum over copies " +
           std::to_string(used);
  }
  return "";
}

void CopySet::debug_corrupt_used(std::uint64_t used) {
  used_ = used;  // per-copy occupancy deliberately left untouched
}

void CopySet::clear() {
  // The trees stay, cleared in place, for the next round's copies.
  for (std::uint64_t k = 0; k < count_; ++k) trees_[k].clear();
  count_ = 0;
  copy_rank_.clear();
  fits_.clear();
  used_ = 0;
}

}  // namespace partree::tree
