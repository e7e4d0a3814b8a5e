// The paper's reallocation procedure A_R: repack all active tasks.
//
// Sort active tasks by decreasing size and first-fit them into machine
// copies (Section 3). Lemma 1: the resulting copy count -- and hence the
// machine load -- is exactly ceil(S/N) for total active size S.
//
// The implementation exploits the model's size structure instead of a
// comparison sort: task sizes are powers of two in [1, N], so there are
// at most log N + 1 distinct values and "sort by size" is a bucket pass
// into per-size-class vectors. Within a class ties break by ascending id
// (one small per-class sort), which reproduces the comparison sort's
// output byte for byte. Each task is then placed with one
// CopySet::place(). repack_into recycles a caller-owned CopySet and
// PackScratch, so steady-state rounds allocate nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/machine_state.hpp"
#include "tree/copy_set.hpp"

namespace partree::core {

/// Result of repacking one task.
struct PackedTask {
  TaskId id = kInvalidTask;
  std::uint64_t size = 0;
  tree::CopyPlacement placement;
};

/// Reusable buffers for the repack pipeline. Allocators that reallocate
/// repeatedly (DRealloc, RandRealloc, Optimal) hold one of these beside
/// their CopySet so every round after the first runs in recycled storage;
/// the convenience entry points build a transient one internally.
struct PackScratch {
  /// One task awaiting placement: its size is implied by the bucket it
  /// sits in, and `from` carries its current node so recording a mover
  /// needs no per-task hash lookup.
  struct Pending {
    TaskId id = kInvalidTask;
    tree::NodeId from = tree::kInvalidNode;
  };

  /// buckets[j] holds the pending tasks of size 2^j, sorted by id before
  /// placement. Sized to the topology's class count on first use.
  std::vector<std::vector<Pending>> buckets;
  /// Tasks in canonical placement order with their new placements.
  std::vector<PackedTask> packed;
  /// The round's plan: one entry per task whose node changes, in
  /// placement order, recorded as each task is placed.
  std::vector<Migration> migrations;
};

/// Repacks the active tasks of `state` per A_R into `copies` (cleared
/// first, at a cost of what the copies held rather than O(N) per copy),
/// reusing `scratch` buffers. On return scratch.packed holds
/// every task with its new placement in canonical A_R order and
/// scratch.migrations holds the plan -- only the tasks whose node
/// changes, in that same order. Returns the copy count used
/// (Lemma 1: ceil(S/N)).
std::uint64_t repack_into(const MachineState& state, tree::CopySet& copies,
                          PackScratch& scratch);

/// Packs `tasks` (any order) into fresh copies of the machine per A_R:
/// decreasing size, ties broken by ascending id for determinism; each task
/// goes to the first copy with a vacant block, leftmost block within it.
[[nodiscard]] std::vector<PackedTask> pack_tasks(
    const tree::Topology& topo, std::span<const ActiveTask> tasks);

/// Packing-order ablation (see bench/ab1_packing_ablation). The paper's
/// A_R order is kDecreasingSize, which makes Lemma 1's ceil(S/N) proof
/// one paragraph; by the Lemma 2 argument ANY first-fit order packs a
/// static set into ceil(S/N) copies, so the practical value of the
/// canonical order is determinism and placement stability across repeated
/// repacks (fewer physical migrations) -- which the ablation measures.
enum class PackOrder : std::uint8_t {
  kDecreasingSize,  ///< A_R: largest first (ties by id)
  kIncreasingSize,  ///< smallest first (ties by id)
  kArrivalOrder,    ///< ascending id, sizes interleaved
};

/// pack_tasks with an explicit placement order; kDecreasingSize matches
/// pack_tasks exactly.
[[nodiscard]] std::vector<PackedTask> pack_tasks_ordered(
    const tree::Topology& topo, std::span<const ActiveTask> tasks,
    PackOrder order);

/// One-shot repack_into on a fresh CopySet and scratch: the plan that
/// moves the active tasks of `state` to their A_R packing -- only tasks
/// whose node changes appear. `out_copies` (optional) receives the copy
/// count used.
[[nodiscard]] std::vector<Migration> plan_repack(
    const MachineState& state, std::uint64_t* out_copies = nullptr);

}  // namespace partree::core
