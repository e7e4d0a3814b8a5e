#include "core/packing.hpp"

#include <algorithm>
#include <utility>

#include "util/math.hpp"

namespace partree::core {
namespace {

/// Sizes buckets to the topology's class count (sizes 2^0 .. 2^height)
/// and empties them, keeping their capacity.
void reset_buckets(PackScratch& scratch, std::size_t n_classes) {
  if (scratch.buckets.size() < n_classes) scratch.buckets.resize(n_classes);
  for (auto& bucket : scratch.buckets) bucket.clear();
}

/// Places every bucketed task into `copies` class by class (largest
/// first when `decreasing`), ids ascending within a class, filling
/// scratch.packed in placement order and appending to scratch.migrations
/// each task whose new node differs from its current one. Identical
/// output to sorting (size, id) with one comparison sort and placing one
/// by one: the class walk IS the size key and the per-class id sort is
/// the tie-break.
void place_buckets(tree::CopySet& copies, PackScratch& scratch,
                   bool decreasing) {
  std::size_t total = 0;
  for (const auto& bucket : scratch.buckets) total += bucket.size();
  scratch.packed.clear();
  scratch.packed.reserve(total);
  scratch.migrations.clear();

  const std::size_t n_classes = scratch.buckets.size();
  for (std::size_t step = 0; step < n_classes; ++step) {
    const std::size_t j = decreasing ? n_classes - 1 - step : step;
    auto& bucket = scratch.buckets[j];
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end(),
              [](const PackScratch::Pending& a,
                 const PackScratch::Pending& b) { return a.id < b.id; });
    const std::uint64_t size = std::uint64_t{1} << j;
    for (const PackScratch::Pending& pending : bucket) {
      const tree::CopyPlacement placement = copies.place(size);
      scratch.packed.push_back({pending.id, size, placement});
      if (placement.node != pending.from) {
        scratch.migrations.push_back(
            {pending.id, pending.from, placement.node});
      }
    }
  }
}

}  // namespace

std::uint64_t repack_into(const MachineState& state, tree::CopySet& copies,
                          PackScratch& scratch) {
  const tree::Topology& topo = state.topology();
  reset_buckets(scratch, topo.height() + std::size_t{1});
  state.for_each_active([&scratch](const ActiveTask& at) {
    scratch.buckets[util::exact_log2(at.task.size)].push_back(
        {at.task.id, at.node});
  });
  copies.clear();
  place_buckets(copies, scratch, /*decreasing=*/true);
  return copies.copy_count();
}

std::vector<PackedTask> pack_tasks_ordered(const tree::Topology& topo,
                                           std::span<const ActiveTask> tasks,
                                           PackOrder order) {
  tree::CopySet copies(topo);
  if (order == PackOrder::kArrivalOrder) {
    // Sizes interleave under arrival order, so there is no class to
    // bucket; a single id sort and per-task placement is the whole job.
    std::vector<PackedTask> packed;
    packed.reserve(tasks.size());
    for (const ActiveTask& at : tasks) {
      packed.push_back({at.task.id, at.task.size, {}});
    }
    std::sort(packed.begin(), packed.end(),
              [](const PackedTask& a, const PackedTask& b) {
                return a.id < b.id;
              });
    for (PackedTask& p : packed) p.placement = copies.place(p.size);
    return packed;
  }

  PackScratch scratch;
  reset_buckets(scratch, topo.height() + std::size_t{1});
  for (const ActiveTask& at : tasks) {
    scratch.buckets[util::exact_log2(at.task.size)].push_back(
        {at.task.id, at.node});
  }
  place_buckets(copies, scratch, order == PackOrder::kDecreasingSize);
  return std::move(scratch.packed);
}

std::vector<PackedTask> pack_tasks(const tree::Topology& topo,
                                   std::span<const ActiveTask> tasks) {
  return pack_tasks_ordered(topo, tasks, PackOrder::kDecreasingSize);
}

std::vector<Migration> plan_repack(const MachineState& state,
                                   std::uint64_t* out_copies) {
  tree::CopySet copies(state.topology());
  PackScratch scratch;
  const std::uint64_t count = repack_into(state, copies, scratch);
  if (out_copies != nullptr) *out_copies = count;
  return std::move(scratch.migrations);
}

}  // namespace partree::core
