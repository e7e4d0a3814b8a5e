// Per-thread shard registry backing the metrics registry (metrics.hpp).
//
// Hot paths (one engine event, one min_load_node call) touch only the
// calling thread's shard -- no locks, no contended cache lines -- so the
// partition service's client and apply threads never contend. A shard
// registers itself on a thread's first use and, when the thread exits,
// folds its totals into a "retired" accumulator under the registry mutex:
// joining a thread therefore merges its records automatically.
// Aggregation walks retired + live shards; it is exact at quiescent
// points (harness boundaries, after joins) and, for shards of atomic
// cells, race-free but fuzzy elsewhere.
#pragma once

#include <mutex>
#include <vector>

namespace partree::obs::detail {

/// T needs: default construction == zero, `void merge(const T&)`, and
/// copy assignment (used to zero shards on reset).
template <typename T>
class ShardRegistry {
 public:
  /// The calling thread's shard. First call on a thread registers it;
  /// thread exit retires it.
  T& local() {
    static thread_local Handle handle(*this);
    return handle.value;
  }

  /// Sum of every value ever recorded and not reset: retired shards plus
  /// a snapshot of all live ones. Call at quiescent points only --
  /// concurrent writers on other threads make the snapshot fuzzy.
  [[nodiscard]] T aggregate() const {
    std::lock_guard lock(mutex_);
    T out = retired_;
    for (const T* shard : live_) out.merge(*shard);
    return out;
  }

  /// Zeroes the retired accumulator and every live shard. Call only when
  /// no other thread is recording.
  void reset() {
    std::lock_guard lock(mutex_);
    retired_ = T{};
    for (T* shard : live_) *shard = T{};
  }

 private:
  struct Handle {
    T value{};
    ShardRegistry& owner;

    explicit Handle(ShardRegistry& registry) : owner(registry) {
      std::lock_guard lock(owner.mutex_);
      owner.live_.push_back(&value);
    }
    ~Handle() {
      std::lock_guard lock(owner.mutex_);
      owner.retired_.merge(value);
      std::erase(owner.live_, &value);
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
  };

  mutable std::mutex mutex_;
  std::vector<T*> live_;
  T retired_{};
};

}  // namespace partree::obs::detail
