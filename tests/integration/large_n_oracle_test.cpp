// Oracles at the machine sizes where the fast paths run: VacancyTree and
// CopySet under seeded churn at N = 2^16 and 2^20, each checked against an
// independent recompute, A_R's repack against its closed form and a
// round's plan against the delta of pack_tasks, and MachineState plus the
// allocators against a fresh rebuild.
//
// VacancyTree::clear() walks only the occupied paths. At N <= 64 those
// paths soon cover every node, so a clear() that missed a node would look
// the same as one that rewrote them all; at 2^20 it would not.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/machine_state.hpp"
#include "core/pack_oracle.hpp"
#include "core/packing.hpp"
#include "core/step.hpp"
#include "tree/copy_set.hpp"
#include "tree/vacancy_tree.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree {
namespace {

using tree::NodeId;
using tree::Topology;

/// Brute-force model of one copy: which PEs are covered, nothing else.
/// Queries scan the maximal vacant runs left to right, so they share no
/// aggregate with VacancyTree. O(N) per query.
class CoverageModel {
 public:
  explicit CoverageModel(std::uint64_t n_leaves) : covered_(n_leaves, 0) {}

  void set(const Topology& topo, NodeId v, bool covered) {
    std::fill(covered_.begin() + static_cast<std::ptrdiff_t>(topo.first_pe(v)),
              covered_.begin() + static_cast<std::ptrdiff_t>(topo.end_pe(v)),
              covered ? 1 : 0);
  }

  void clear() { std::fill(covered_.begin(), covered_.end(), 0); }

  /// First PE of the leftmost vacant aligned block of `size`, if any.
  [[nodiscard]] std::optional<std::uint64_t> leftmost(
      std::uint64_t size) const {
    std::optional<std::uint64_t> found;
    for_each_vacant_run([&](std::uint64_t begin, std::uint64_t end) {
      const std::uint64_t start = align_up(begin, size);
      if (start + size <= end) found = start;
      return found.has_value();
    });
    return found;
  }

  /// Size of the largest vacant aligned block, 0 when none is vacant.
  [[nodiscard]] std::uint64_t max_free() const {
    std::uint64_t best = 0;
    for_each_vacant_run([&](std::uint64_t begin, std::uint64_t end) {
      for (std::uint64_t s = std::bit_floor(end - begin); s > best; s /= 2) {
        if (align_up(begin, s) + s <= end) {
          best = s;
          break;
        }
      }
      return false;
    });
    return best;
  }

 private:
  static std::uint64_t align_up(std::uint64_t pe, std::uint64_t size) {
    return (pe + size - 1) / size * size;
  }

  /// Calls f(begin, end) for each maximal vacant run [begin, end), left
  /// to right, until f returns true.
  template <class F>
  void for_each_vacant_run(F&& f) const {
    const auto first = covered_.begin();
    auto it = first;
    while (true) {
      it = std::find(it, covered_.end(), std::uint8_t{0});
      if (it == covered_.end()) return;
      const auto run_end = std::find(it, covered_.end(), std::uint8_t{1});
      if (f(static_cast<std::uint64_t>(it - first),
            static_cast<std::uint64_t>(run_end - first))) {
        return;
      }
      it = run_end;
    }
  }

  std::vector<std::uint8_t> covered_;
};

std::string size_name(const ::testing::TestParamInfo<std::uint32_t>& info) {
  std::string name = "N";
  name += std::to_string(std::uint64_t{1} << info.param);
  return name;
}

// (a) One copy under allocate/release churn with a clear() every few
// hundred steps, against the coverage model and a fresh tree.
class LargeNOracleVacancyTree
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LargeNOracleVacancyTree, ChurnMatchesCoverageModel) {
  const Topology topo(std::uint64_t{1} << GetParam());
  const tree::VacancyTree fresh{topo};
  tree::VacancyTree t{topo};
  CoverageModel model(topo.n_leaves());
  util::Rng rng(GetParam() * 7919 + 3);

  std::vector<NodeId> held;
  std::uint64_t used = 0;
  std::uint64_t allocations = 0;
  std::uint64_t clears = 0;
  std::uint64_t next_clear = 200 + rng.below(200);
  for (std::uint64_t step = 1; step <= 4000; ++step) {
    // Half the draws span every size class; the other half stay small, so
    // the copy holds many scattered tasks and clear() walks many paths.
    const std::uint64_t classes = rng.bernoulli(0.5) ? topo.height() + 1 : 7;
    const std::uint64_t size = std::uint64_t{1} << rng.below(classes);
    if (t.can_fit(size) && (held.empty() || rng.bernoulli(0.6))) {
      const NodeId v = t.allocate(size);
      if (++allocations % 8 == 0) {
        const std::optional<std::uint64_t> pe = model.leftmost(size);
        ASSERT_TRUE(pe.has_value()) << "step " << step;
        ASSERT_EQ(v, topo.node_for(size, *pe / size)) << "step " << step;
      }
      model.set(topo, v, true);
      held.push_back(v);
      used += size;
    } else if (!held.empty()) {
      const std::uint64_t pick = rng.below(held.size());
      const NodeId v = held[pick];
      held[pick] = held.back();
      held.pop_back();
      t.release(v);
      model.set(topo, v, false);
      used -= topo.subtree_size(v);
    }

    if (step % 32 == 0) {
      ASSERT_EQ(t.used(), used) << "step " << step;
      ASSERT_EQ(t.max_free(), model.max_free()) << "step " << step;
      ASSERT_EQ(t.empty(), held.empty()) << "step " << step;
      ASSERT_EQ(t.check(), "") << "step " << step;
    }
    if (step == next_clear) {
      t.clear();
      model.clear();
      held.clear();
      used = 0;
      ASSERT_TRUE(t == fresh) << "clear at step " << step;
      ASSERT_EQ(t.check(), "") << "clear at step " << step;
      ++clears;
      next_clear = step + 200 + rng.below(200);
    }
  }
  EXPECT_GE(clears, 8u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeNOracleVacancyTree,
                         ::testing::Values(16u, 20u), size_name);

// (b) A CopySet of few large tasks per copy, so interior copies drain to
// empty and are refilled in place, and trailing ones leave the stack and
// wait as vacant trees; then clear() and refill from the waiting trees.
// check() recomputes every copy and compares every waiting tree with a
// fresh one.
class LargeNOracleCopySet : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LargeNOracleCopySet, SpareReuseAndClearKeepEveryTreeConsistent) {
  const Topology topo(std::uint64_t{1} << GetParam());
  tree::CopySet set{topo};
  util::Rng rng(GetParam() * 104729 + 11);

  std::vector<tree::CopyPlacement> held;
  std::uint64_t used = 0;
  std::uint64_t drained_slot_refills = 0;
  for (int phase = 0; phase < 3; ++phase) {
    for (int step = 1; step <= 400; ++step) {
      if (held.size() < 4 || (held.size() < 16 && rng.bernoulli(0.5))) {
        // Mostly sizes N .. N/16; a few small tasks scatter paths inside
        // the copies that clear() must walk.
        const std::uint64_t size =
            rng.bernoulli(0.8)
                ? topo.n_leaves() >> rng.below(5)
                : std::uint64_t{1} << rng.below(7);
        const std::uint64_t copies_before = set.copy_count();
        const std::uint64_t live_before = set.live_copy_count();
        const tree::CopyPlacement p = set.place(size);
        if (p.copy < copies_before && set.live_copy_count() > live_before) {
          ++drained_slot_refills;
        }
        held.push_back(p);
        used += size;
      } else {
        const std::uint64_t pick = rng.below(held.size());
        set.remove(held[pick]);
        used -= topo.subtree_size(held[pick].node);
        held[pick] = held.back();
        held.pop_back();
      }
      ASSERT_EQ(set.used(), used) << "phase " << phase << " step " << step;
      if (step % 20 == 0) {
        ASSERT_EQ(set.check(), "") << "phase " << phase << " step " << step;
        for (const tree::CopyPlacement& p : held) {
          ASSERT_TRUE(set.occupied(p)) << "phase " << phase;
        }
      }
    }
    set.clear();
    held.clear();
    used = 0;
    ASSERT_EQ(set.copy_count(), 0u);
    ASSERT_EQ(set.check(), "") << "after clear in phase " << phase;
  }
  EXPECT_GT(drained_slot_refills, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeNOracleCopySet,
                         ::testing::Values(16u, 20u), size_name);

// (c) A_R against its closed form. Sizes are powers of two placed largest
// first, so the used part of the current copy is always a prefix whose
// length is a multiple of the size being placed: with tasks ordered by
// (size desc, id asc) and P_i the sum of the sizes before task i, task i
// lands in copy P_i / N at the (P_i mod N) / s_i-th block of its size.
class LargeNOraclePack : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LargeNOraclePack, RepackIsTheClosedFormPrefixSum) {
  const Topology topo(std::uint64_t{1} << GetParam());
  const std::uint64_t n = topo.n_leaves();
  util::Rng rng(GetParam() * 15485863 + 7);
  // Every copy is a 2N-byte tree, so the largest machine gets fewer and
  // smaller task sets.
  const bool huge = GetParam() >= 20;
  const int n_sets = huge ? 30 : 60;
  const std::uint64_t max_tasks = huge ? 60 : 300;

  for (int set = 0; set < n_sets; ++set) {
    const std::uint64_t count = 1 + rng.below(max_tasks);
    const std::uint64_t classes =
        rng.bernoulli(0.5) ? topo.height() + 1 : std::uint64_t{8};
    std::vector<core::ActiveTask> tasks;
    for (std::uint64_t i = 0; i < count; ++i) {
      tasks.push_back({core::Task{static_cast<core::TaskId>(i),
                                  std::uint64_t{1} << rng.below(classes)},
                       tree::kInvalidNode});
    }
    // Shuffle so input order says nothing about ids or sizes.
    for (std::size_t i = tasks.size(); i > 1; --i) {
      std::swap(tasks[i - 1], tasks[rng.below(i)]);
    }

    const std::vector<core::PackedTask> packed = core::pack_tasks(topo, tasks);

    std::vector<core::Task> order;
    for (const core::ActiveTask& at : tasks) order.push_back(at.task);
    std::sort(order.begin(), order.end(),
              [](const core::Task& a, const core::Task& b) {
                if (a.size != b.size) return a.size > b.size;
                return a.id < b.id;
              });
    ASSERT_EQ(packed.size(), order.size()) << "set " << set;
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint64_t s = order[i].size;
      ASSERT_EQ(packed[i].id, order[i].id) << "set " << set << " rank " << i;
      ASSERT_EQ(packed[i].placement.copy, prefix / n)
          << "set " << set << " rank " << i;
      ASSERT_EQ(packed[i].placement.node, topo.node_for(s, (prefix % n) / s))
          << "set " << set << " rank " << i;
      prefix += s;
    }
  }
}

// A round's plan at large N: repack_into's mover list against the delta
// of pack_tasks (core/pack_oracle.hpp), over a churned machine whose
// plans are applied, so each state mixes movers with tasks that stay.
TEST_P(LargeNOraclePack, RepackPlanIsTheDeltaOfPackTasks) {
  const Topology topo(std::uint64_t{1} << GetParam());
  util::Rng rng(GetParam() * 104729 + 3);
  const bool huge = GetParam() >= 20;
  const int rounds = huge ? 12 : 40;
  const std::uint64_t max_arrivals = huge ? 30 : 120;

  core::MachineState state{topo};
  tree::CopySet copies(topo);
  core::PackScratch scratch;
  core::TaskId next_id = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const core::ActiveTask& at : state.active_tasks()) {
      if (rng.bernoulli(0.3)) (void)state.remove(at.task.id);
    }
    const std::uint64_t classes =
        rng.bernoulli(0.5) ? topo.height() + 1 : std::uint64_t{8};
    const std::uint64_t arrivals = 1 + rng.below(max_arrivals);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      const std::uint64_t size = std::uint64_t{1} << rng.below(classes);
      const std::uint64_t slot = rng.below(topo.count_for_size(size));
      state.place({next_id++, size}, topo.node_for(size, slot));
    }
    (void)core::repack_into(state, copies, scratch);
    ASSERT_EQ(scratch.migrations, core::delta_of_pack_tasks(state))
        << "round " << round;
    state.migrate(scratch.migrations);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeNOraclePack,
                         ::testing::Values(16u, 20u), size_name);

// (d) MachineState and the allocators under a replay_dmix-shaped closed
// loop (sizes N/2^k, k <= 7), applied through core::apply_event. Every few
// hundred events the incremental state is compared with one rebuilt from
// active_tasks(). MachineState::digest() mixes the run's peak active size,
// which a rebuild cannot know, and LoadTree::digest() mixes only `add` and
// the root's `down`; so the checks compare the fields a rebuild can
// reproduce and re-derive every LoadTree aggregate with check(). The
// allocator's own self-check covers its copy stack, waiting trees
// included.
class LargeNOracleMachineState
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LargeNOracleMachineState, IncrementalStateMatchesAFreshRebuild) {
  const Topology topo(std::uint64_t{1} << GetParam());
  util::Rng rng(GetParam() * 7727 + 19);
  const core::TaskSequence seq = workload::closed_loop(
      topo,
      {.n_events = 3000,
       .utilization = 0.90,
       .size = workload::SizeSpec::uniform_log(GetParam() - 7, GetParam())},
      rng);

  for (const char* spec :
       {"basic", "dmix:d=1", "optimal", "randmix:d=2", "greedy"}) {
    SCOPED_TRACE(spec);
    const core::AllocatorPtr alloc = core::make_allocator(spec, topo, 5);
    core::MachineState state{topo};
    std::uint64_t step = 0;
    std::uint64_t checkpoints = 0;
    for (const core::Event& e : seq.events()) {
      (void)core::apply_event(state, *alloc, e);
      if (++step % 250 != 0) continue;
      core::MachineState fresh{topo};
      for (const core::ActiveTask& at : state.active_tasks()) {
        fresh.place(at.task, at.node);
      }
      ASSERT_EQ(state.loads().check(), "") << "step " << step;
      ASSERT_EQ(state.loads().digest(), fresh.loads().digest())
          << "step " << step;
      ASSERT_EQ(state.max_load(), fresh.max_load()) << "step " << step;
      ASSERT_EQ(state.active_size(), fresh.active_size()) << "step " << step;
      ASSERT_EQ(state.active_count(), fresh.active_count())
          << "step " << step;
      ASSERT_EQ(alloc->debug_check_state(), "") << "step " << step;
      ++checkpoints;
    }
    EXPECT_GE(checkpoints, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LargeNOracleMachineState,
                         ::testing::Values(16u, 20u), size_name);

}  // namespace
}  // namespace partree
