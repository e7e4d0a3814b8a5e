#include "adversary/det_adversary.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::adversary {

DetAdversary::DetAdversary(tree::Topology topo, std::uint64_t p)
    : topo_(topo), p_(p) {
  PARTREE_ASSERT(p <= topo.height(), "phase count exceeds log N");
  enqueue_phase0();
  phase_ends_.push_back(pending_.size());
  stage_ = p_ <= 1 ? Stage::kDone : Stage::kDepartures;
  phase_ = 1;
}

DetAdversary DetAdversary::for_d(tree::Topology topo, std::uint64_t d,
                                 bool d_infinite) {
  const std::uint64_t log_n = topo.height();
  const std::uint64_t p = d_infinite ? log_n : std::min(d, log_n);
  return DetAdversary(topo, p);
}

std::uint64_t DetAdversary::forced_load() const noexcept {
  return util::ceil_div(p_ + 1, 2);
}

void DetAdversary::enqueue_phase0() {
  for (std::uint64_t k = 0; k < topo_.n_leaves(); ++k) {
    pending_.push_back(core::Event::arrival(next_id_++, 1));
  }
}

void DetAdversary::enqueue_departures(const core::MachineState& state) {
  const std::uint64_t i = phase_;
  // Children of size-2^i submachines live at this depth.
  const std::uint32_t child_depth =
      topo_.depth_for_size(std::uint64_t{1} << (i - 1));

  // Per child node: l (max PE load inside) and L (active size inside).
  const std::uint64_t first_child = std::uint64_t{1} << child_depth;
  const std::uint64_t child_count = std::uint64_t{1} << child_depth;
  std::vector<std::uint64_t> inside_size(child_count, 0);

  // Ascending ids make the recorded sequence independent of the order in
  // which MachineState stores its tasks; departures within one stage
  // commute, so every allocator ends the stage in the same state.
  auto tasks = state.active_tasks();
  std::sort(tasks.begin(), tasks.end(),
            [](const core::ActiveTask& a, const core::ActiveTask& b) {
              return a.task.id < b.task.id;
            });
  for (const core::ActiveTask& at : tasks) {
    // Every active task has size <= 2^(i-1) here, so its node lies at or
    // below child depth and has exactly one child-depth ancestor.
    const std::uint32_t dv = topo_.depth(at.node);
    PARTREE_ASSERT(dv >= child_depth,
                   "adversary: active task larger than a phase child");
    const tree::NodeId child = at.node >> (dv - child_depth);
    inside_size[child - first_child] += at.task.size;
  }

  // Decide, for each size-2^i submachine, which child's tasks depart.
  std::vector<std::uint8_t> departs(child_count, 0);
  for (std::uint64_t pair = 0; pair < child_count / 2; ++pair) {
    const tree::NodeId lhs = first_child + 2 * pair;
    const tree::NodeId rhs = lhs + 1;
    const auto q = [&](tree::NodeId v) {
      const std::uint64_t l = state.loads().subtree_max(v);
      const std::uint64_t inside = inside_size[v - first_child];
      // Q = 2^i * l - L; compute in signed arithmetic (L <= 2^i * l always
      // holds since l * size bounds the packable size, but stay safe).
      return static_cast<std::int64_t>((std::uint64_t{1} << i) * l) -
             static_cast<std::int64_t>(inside);
    };
    // Q(L) > Q(R): right child's tasks depart; otherwise the left's.
    if (q(lhs) > q(rhs)) {
      departs[rhs - first_child] = 1;
    } else {
      departs[lhs - first_child] = 1;
    }
  }

  for (const core::ActiveTask& at : tasks) {
    const std::uint32_t dv = topo_.depth(at.node);
    const tree::NodeId child = at.node >> (dv - child_depth);
    if (departs[child - first_child]) {
      pending_.push_back(core::Event::departure(at.task.id));
    }
  }
}

void DetAdversary::enqueue_arrivals(const core::MachineState& state) {
  const std::uint64_t i = phase_;
  const std::uint64_t size = std::uint64_t{1} << i;
  const std::uint64_t remaining = state.active_size();
  PARTREE_ASSERT(remaining <= topo_.n_leaves(),
                 "adversary overfilled the machine");
  const std::uint64_t count = (topo_.n_leaves() - remaining) / size;
  for (std::uint64_t k = 0; k < count; ++k) {
    pending_.push_back(core::Event::arrival(next_id_++, size));
  }
}

std::optional<core::Event> DetAdversary::next(
    const core::MachineState& state) {
  while (pending_.empty() && stage_ != Stage::kDone) {
    switch (stage_) {
      case Stage::kDepartures:
        enqueue_departures(state);
        stage_ = Stage::kArrivals;
        break;
      case Stage::kArrivals:
        enqueue_arrivals(state);
        phase_ends_.push_back(emitted_ + pending_.size());
        if (phase_ + 1 < p_) {
          ++phase_;
          stage_ = Stage::kDepartures;
        } else {
          stage_ = Stage::kDone;
        }
        break;
      case Stage::kPhase0:
      case Stage::kDone:
        PARTREE_ASSERT(false, "unreachable adversary stage");
    }
  }
  if (pending_.empty()) return std::nullopt;
  const core::Event event = pending_.front();
  pending_.pop_front();
  ++emitted_;
  return event;
}

}  // namespace partree::adversary
