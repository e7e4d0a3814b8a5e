// Algorithm A_B (Section 4.1): copies-based first-fit, no reallocation.
//
// An arriving task goes to the leftmost vacant block of the first machine
// copy that fits, creating a copy when none does. Lemma 2: for total
// arrival size S, the load never exceeds ceil(S/N).
#pragma once

#include "core/allocator.hpp"
#include "core/task_table.hpp"
#include "tree/copy_set.hpp"

namespace partree::core {

class BasicAllocator : public Allocator {
 public:
  /// `fit` selects the copy-search policy; the paper's A_B is first-fit
  /// (and Lemma 2's guarantee is proved only for it -- see bench ab4).
  explicit BasicAllocator(tree::Topology topo,
                          tree::CopyFit fit = tree::CopyFit::kFirstFit);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  void on_departure(TaskId id, const MachineState& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

  /// Copies currently in existence (upper-bounds the machine load).
  [[nodiscard]] std::uint64_t copy_count() const noexcept {
    return copies_.copy_count();
  }

  /// Fault-injection seam: corrupts the CopySet's used-PE aggregate so
  /// debug_check_state (CopySet::check) trips on the next debug_checks
  /// pass. Applies only once at least one task has been placed.
  bool debug_corrupt_state() override;
  /// CopySet::check(), then an audit of the placement table: every tracked
  /// placement is occupied in the copy set, and the tracked sizes account
  /// for every occupied PE.
  [[nodiscard]] std::string debug_check_state() const override;

 protected:
  // A_M (DReallocAllocator) places with this same bookkeeping between
  // rounds and repacks into it at each round. reset() keeps the table's
  // capacity, so a run after the first allocates nothing here.
  tree::CopySet copies_;
  TaskTable<tree::CopyPlacement> placements_;

 private:
  tree::CopyFit fit_;
};

}  // namespace partree::core
