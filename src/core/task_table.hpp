// One open-addressing table keyed by TaskId: the id index behind
// MachineState's dense task array, A_B's placements and
// TaskSequence::validate.
//
// Linear probing over a power-of-two slot array kept at most half full,
// with backward-shift erase, so there are no tombstones and a lookup stops
// at the first empty slot. Entries live in the slots themselves: no
// allocation per entry, and clear() keeps the capacity, so a table reused
// across runs allocates only while it grows past its high-water mark.
// kInvalidTask marks an empty slot, so it can never be a key.
//
// Every producer in the tree numbers tasks densely (TaskSequence::arrive,
// the service's admission). The home slot is a multiplicative (Fibonacci)
// hash of the id, which spreads dense ids evenly and keeps strided ids
// from clustering too.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "util/assert.hpp"

namespace partree::core {

template <typename V>
class TaskTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slot count: a power of two, at least twice size(). It grows by
  /// doubling and never shrinks, not even on clear().
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Sizes the table once so that `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    const std::size_t wanted = std::max(2 * n, kMinCapacity);
    if (wanted > slots_.size()) rehash(std::bit_ceil(wanted));
  }

  /// The slot a probe for `id` starts at (tests use it to build
  /// colliding and wrapping ids). Requires capacity() > 0.
  [[nodiscard]] std::size_t home_slot(TaskId id) const noexcept {
    return static_cast<std::size_t>((id * kFibonacci) >> shift_);
  }

  /// The value stored for `id`, or nullptr.
  [[nodiscard]] const V* find(TaskId id) const noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home_slot(id);; i = next(i)) {
      const Slot& slot = slots_[i];
      // Testing for the empty key first is what makes find(kInvalidTask)
      // report not found: the reserved id never reaches the id test.
      if (slot.key == kInvalidTask) return nullptr;
      if (slot.key == id) return &slot.value;
    }
  }
  [[nodiscard]] V* find(TaskId id) noexcept {
    return const_cast<V*>(std::as_const(*this).find(id));
  }

  /// Stores id -> value and returns true; returns false, leaving the
  /// table unchanged, when `id` is already present.
  bool insert(TaskId id, const V& value) {
    PARTREE_ASSERT(id != kInvalidTask,
                   "TaskTable key is the reserved kInvalidTask");
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    std::size_t i = home_slot(id);
    for (; slots_[i].key != kInvalidTask; i = next(i)) {
      if (slots_[i].key == id) return false;
    }
    slots_[i] = {id, value};
    ++size_;
    return true;
  }

  /// Removes `id`; returns whether it was present.
  bool erase(TaskId id) noexcept {
    if (slots_.empty()) return false;
    std::size_t hole = home_slot(id);
    for (;; hole = next(hole)) {
      if (slots_[hole].key == kInvalidTask) return false;  // as in find()
      if (slots_[hole].key == id) break;
    }
    // Backward shift: walk the rest of the probe run and pull into the
    // hole every entry whose home lies at or before it (cyclically), so
    // each remaining entry stays reachable from its home without a
    // tombstone.
    for (std::size_t j = next(hole); slots_[j].key != kInvalidTask;
         j = next(j)) {
      const std::size_t home = home_slot(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kInvalidTask;
    --size_;
    return true;
  }

  /// Empties the table and keeps its capacity.
  void clear() noexcept {
    if (size_ == 0) return;
    for (Slot& slot : slots_) slot.key = kInvalidTask;
    size_ = 0;
  }

  /// Visits every entry as fn(id, value), in unspecified order. O(capacity).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kInvalidTask) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    TaskId key = kInvalidTask;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;
  /// 2^64 / golden ratio: consecutive ids land far apart.
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask_;
  }

  void rehash(std::size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key == kInvalidTask) continue;
      std::size_t i = home_slot(slot.key);
      while (slots_[i].key != kInvalidTask) i = next(i);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace partree::core
