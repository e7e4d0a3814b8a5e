#include "workload/stressors.hpp"

#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"
#include "workload/sizes.hpp"

namespace partree::workload {

core::TaskSequence fill_drain(tree::Topology topo, std::uint64_t size,
                              std::uint64_t rounds) {
  PARTREE_ASSERT(util::is_pow2(size) && size <= topo.n_leaves(),
                 "fill_drain size must be a power of two <= N");
  core::TaskSequence seq;
  const std::uint64_t count = topo.n_leaves() / size;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<core::TaskId> batch;
    batch.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      batch.push_back(seq.arrive(size));
    }
    for (const core::TaskId id : batch) seq.depart(id);
  }
  return seq;
}

core::TaskSequence staircase(tree::Topology topo, std::uint64_t phases) {
  PARTREE_ASSERT(phases <= topo.height(), "staircase phases exceed log N");
  core::TaskSequence seq;
  std::uint64_t active_size = 0;
  std::vector<core::TaskId> previous_phase;

  for (std::uint64_t i = 0; i < phases; ++i) {
    const std::uint64_t size = std::uint64_t{1} << i;
    const std::uint64_t count = (topo.n_leaves() - active_size) / size;
    std::vector<core::TaskId> phase;
    phase.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      phase.push_back(seq.arrive(size));
      active_size += size;
    }
    // Depart every second task of this phase (even ranks), halving the
    // occupied size but leaving holes misaligned for size 2^(i+1).
    for (std::uint64_t k = 0; k < phase.size(); k += 2) {
      seq.depart(phase[k]);
      active_size -= size;
    }
    previous_phase = std::move(phase);
  }
  return seq;
}

core::TaskSequence arity_staircase(tree::Topology topo,
                                   std::uint64_t arity) {
  const std::uint32_t phases = log_arity(topo.n_leaves(), arity);
  core::TaskSequence seq;
  std::uint64_t active_size = 0;
  std::uint64_t size = 1;
  std::vector<core::TaskId> phase;
  for (std::uint32_t i = 0; i < phases; ++i, size *= arity) {
    const std::uint64_t count = (topo.n_leaves() - active_size) / size;
    phase.clear();
    for (std::uint64_t k = 0; k < count; ++k) {
      phase.push_back(seq.arrive(size));
      active_size += size;
    }
    for (std::uint64_t k = 0; k < phase.size(); ++k) {
      if (k % arity != 0) {
        seq.depart(phase[k]);
        active_size -= size;
      }
    }
  }
  return seq;
}

core::TaskSequence churn(tree::Topology topo, std::uint64_t rounds) {
  core::TaskSequence seq;
  const std::uint32_t max_log = topo.height();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<core::TaskId> batch;
    // One task of each size up to N/2, largest first: total size < N.
    for (std::uint32_t log = max_log; log-- > 0;) {
      batch.push_back(seq.arrive(std::uint64_t{1} << log));
    }
    for (std::size_t k = 0; k < batch.size() / 2; ++k) {
      seq.depart(batch[k]);
    }
    for (std::size_t k = batch.size() / 2; k < batch.size(); ++k) {
      seq.depart(batch[k]);
    }
  }
  return seq;
}

}  // namespace partree::workload
