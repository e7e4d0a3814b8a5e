#include "tree/copy_set.hpp"

#include <bit>
#include <string>

#include "util/digest.hpp"
#include "util/math.hpp"

namespace partree::tree {

CopySet::CopySet(Topology topo, CopyFit fit)
    : topo_(topo), fit_(fit), n_levels_(topo.height() + 1) {}

std::uint32_t CopySet::rank_of(std::uint64_t max_free) {
  if (max_free == 0) return 0;
  PARTREE_DEBUG_ASSERT(util::is_pow2(max_free),
                       "copy max_free must be 0 or a power of two");
  return util::exact_log2(max_free) + 1;
}

std::uint64_t CopySet::max_free_of(std::uint64_t k) const {
  return copies_[k] ? copies_[k]->max_free() : topo_.n_leaves();
}

VacancyTree CopySet::take_vacant_tree() {
  if (!spares_.empty()) {
    VacancyTree tree = std::move(spares_.back());
    spares_.pop_back();
    return tree;
  }
  return VacancyTree(topo_);
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
  const std::uint32_t fresh = rank_of(max_free_of(k));
  if (fresh == copy_rank_[k]) return;
  set_rank(k, copy_rank_[k], fresh);
  copy_rank_[k] = fresh;
}

CopyPlacement CopySet::place(std::uint64_t size) {
  PARTREE_DEBUG_ASSERT(size > 0 && util::is_pow2(size),
                       "placement size must be a power of two");
  const std::uint32_t level = util::exact_log2(size);
  const std::uint64_t n_words = (copies_.size() + 63) / 64;
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
    best = copies_.size();
    copies_.push_back(take_vacant_tree());
    copy_rank_.push_back(0);
    if (best % 64 == 0) {
      fits_.resize(fits_.size() + n_levels_, 0);
    }
    set_rank(best, 0, n_levels_);
    copy_rank_.back() = n_levels_;
    ++live_copies_;
  } else if (!copies_[best]) {
    // Reuse an empty slot: behaviourally identical to the all-vacant copy
    // it stands for, materialized only now that it holds a task again.
    copies_[best] = take_vacant_tree();
    ++live_copies_;
  }

  const NodeId node = copies_[best]->allocate(size);
  used_ += size;
  reindex(best);
  return {best, node};
}

void CopySet::place_run(std::uint64_t size, std::uint64_t count,
                        std::vector<CopyPlacement>& out) {
  PARTREE_DEBUG_ASSERT(size > 0 && util::is_pow2(size),
                       "placement size must be a power of two");
  if (fit_ != CopyFit::kFirstFit) {
    // Best fit has no monotone cursor (a placement can make an earlier
    // copy the new tightest fit), so the batched form is just the loop.
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(place(size));
    return;
  }
  const std::uint32_t level = util::exact_log2(size);
  // Monotone first-fit cursor: nothing is removed during the run, so a
  // word whose level-`level` stripe was zero stays zero -- the scan never
  // needs to revisit words before `w`. The current word is re-read after
  // every placement because the copy just placed into may still fit.
  std::uint64_t w = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t n_words = (copies_.size() + 63) / 64;
    std::uint64_t best = UINT64_MAX;
    for (; w < n_words; ++w) {
      const std::uint64_t word = fits_[w * n_levels_ + level];
      if (word != 0) {
        best = w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
        break;
      }
    }
    if (best == UINT64_MAX) {
      best = copies_.size();
      copies_.push_back(take_vacant_tree());
      copy_rank_.push_back(0);
      if (best % 64 == 0) {
        fits_.resize(fits_.size() + n_levels_, 0);
      }
      set_rank(best, 0, n_levels_);
      copy_rank_.back() = n_levels_;
      ++live_copies_;
      w = best / 64;  // every earlier word stayed zero at this level
    } else if (!copies_[best]) {
      copies_[best] = take_vacant_tree();
      ++live_copies_;
    }
    const NodeId node = copies_[best]->allocate(size);
    used_ += size;
    reindex(best);
    out.push_back({best, node});
  }
}

bool CopySet::occupied(const CopyPlacement& placement) const {
  return placement.copy < copies_.size() &&
         copies_[placement.copy].has_value() &&
         copies_[placement.copy]->occupied(placement.node);
}

void CopySet::remove(const CopyPlacement& placement) {
  PARTREE_ASSERT(placement.copy < copies_.size(),
                 "remove from nonexistent copy");
  PARTREE_ASSERT(copies_[placement.copy].has_value(),
                 "remove from empty copy");
  std::optional<VacancyTree>& copy = copies_[placement.copy];
  copy->release(placement.node);
  used_ -= topo_.subtree_size(placement.node);
  if (copy->empty()) {
    // Reclaim the drained copy's storage in place; the slot keeps its
    // index (outstanding CopyPlacements stay valid) and keeps acting as a
    // fully vacant copy in the placement search. The drained tree itself
    // joins the spare pool for the next materialization.
    spares_.push_back(std::move(*copy));
    copy.reset();
    --live_copies_;
  }
  reindex(placement.copy);
  while (!copies_.empty() && !copies_.back().has_value()) {
    const std::uint64_t k = copies_.size() - 1;
    set_rank(k, copy_rank_[k], 0);
    if (k % 64 == 0) {
      fits_.resize(fits_.size() - n_levels_);
    }
    copies_.pop_back();
    copy_rank_.pop_back();
  }
}

std::uint64_t CopySet::digest() const {
  util::Fnv fnv;
  fnv.mix(topo_.n_leaves());
  fnv.mix(copies_.size());
  for (std::uint64_t k = 0; k < copies_.size(); ++k) {
    fnv.mix(k);
    if (!copies_[k]) {
      fnv.mix(0);  // empty slot == fully vacant copy, storage or not
      continue;
    }
    // Occupied subtree roots form a set; fold commutatively so the digest
    // does not depend on enumeration order.
    std::uint64_t occupancy = 0;
    for (NodeId v = 1; v <= topo_.n_nodes(); ++v) {
      if (copies_[k]->occupied(v)) {
        occupancy = util::commutative_add(occupancy, util::element_digest(v));
      }
    }
    fnv.mix(occupancy);
    fnv.mix(copies_[k]->used());
  }
  fnv.mix(used_);
  return fnv.value();
}

std::string CopySet::check() const {
  std::uint64_t used = 0;
  std::uint64_t live = 0;
  const std::uint64_t n_words = (copies_.size() + 63) / 64;
  for (std::uint64_t k = 0; k < copies_.size(); ++k) {
    if (copies_[k]) {
      const std::string tree = copies_[k]->check();
      if (!tree.empty()) return "copy " + std::to_string(k) + ": " + tree;
      used += copies_[k]->used();
      ++live;
    }
    const std::uint32_t want_rank = rank_of(max_free_of(k));
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
  if (!spares_.empty()) {
    const VacancyTree fresh(topo_);
    for (std::size_t i = 0; i < spares_.size(); ++i) {
      if (spares_[i] != fresh) {
        return "spare " + std::to_string(i) + " is not a fresh tree";
      }
    }
  }
  if (fits_.size() != n_words * n_levels_) {
    return "fits_ word count does not match copy count";
  }
  if (used != used_) {
    return "used " + std::to_string(used_) + " != sum over copies " +
           std::to_string(used);
  }
  if (live != live_copies_) {
    return "live copy count " + std::to_string(live_copies_) +
           " != recomputed " + std::to_string(live);
  }
  return "";
}

void CopySet::debug_corrupt_used(std::uint64_t used) {
  used_ = used;  // per-copy occupancy deliberately left untouched
}

void CopySet::clear() {
  // Drain live trees into the spare pool instead of freeing them: the
  // next repack re-creates roughly the same number of copies, and a
  // cleared tree equals a freshly built one. VacancyTree::clear walks
  // only the occupied paths, so a round pays for the tasks the copies
  // held; only a copy count above the pool's size pays a 2N-byte zero
  // fill.
  for (std::optional<VacancyTree>& copy : copies_) {
    if (!copy) continue;
    copy->clear();
    spares_.push_back(std::move(*copy));
  }
  copies_.clear();
  copy_rank_.clear();
  fits_.clear();
  used_ = 0;
  live_copies_ = 0;
}

}  // namespace partree::tree
