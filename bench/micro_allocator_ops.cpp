// M1 -- allocator operation throughput (google-benchmark).
//
// Measures per-event cost of each allocation algorithm and of the core
// data structures as the machine grows, so the greedy query (a DFS bounded
// by subtree minimum load) and the O(log N) copies allocators are visible
// side by side. BM_SmallTaskRun puts greedy on an N axis (2^8 ... 2^18)
// with small tasks, where an unbounded candidate scan would grow with N.
#include <benchmark/benchmark.h>

#include "core/factory.hpp"
#include "core/packing.hpp"
#include "sim/engine.hpp"
#include "tree/copy_set.hpp"
#include "tree/load_tree.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace partree;

core::TaskSequence make_workload(const tree::Topology& topo,
                                 std::uint64_t n_events,
                                 workload::SizeSpec size) {
  util::Rng rng(42);
  workload::ClosedLoopParams params;
  params.n_events = n_events;
  params.utilization = 0.85;
  params.size = size;
  return workload::closed_loop(topo, params, rng);
}

void run_allocator(benchmark::State& state, const char* spec,
                   const core::TaskSequence& seq, const tree::Topology& topo) {
  sim::Engine engine(topo);
  auto alloc = core::make_allocator(spec, topo, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(seq, *alloc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seq.size()));
}

void BM_AllocatorRun(benchmark::State& state, const char* spec) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  run_allocator(state, spec,
                make_workload(topo, 2000,
                              workload::SizeSpec::uniform_log(0, topo.height())),
                topo);
}

// ~20k events of geometric(0.5) sizes: most tasks are one or two PEs, so
// each greedy query faces N/size candidates at the bottom levels.
void BM_SmallTaskRun(benchmark::State& state, const char* spec) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  run_allocator(state, spec,
                make_workload(topo, 20000,
                              workload::SizeSpec::geometric(0.5, topo.height())),
                topo);
}

void BM_LoadTreeAssign(benchmark::State& state) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  tree::LoadTree loads(topo);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(topo.height() + 1);
    const tree::NodeId v =
        topo.node_for(size, rng.below(topo.count_for_size(size)));
    loads.assign(v);
    loads.release(v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_LoadTreeMinQuery(benchmark::State& state) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  tree::LoadTree loads(topo);
  util::Rng rng(2);
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(topo.height() + 1);
    loads.assign(topo.node_for(size, rng.below(topo.count_for_size(size))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(loads.min_load_node(1));
  }
}

void BM_VacancyChurn(benchmark::State& state) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  tree::VacancyTree vac(topo);
  util::Rng rng(3);
  std::vector<tree::NodeId> held;
  for (auto _ : state) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(topo.height());
    if (vac.can_fit(size) && (held.empty() || rng.bernoulli(0.55))) {
      held.push_back(vac.allocate(size));
    } else if (!held.empty()) {
      const std::uint64_t pick = rng.below(held.size());
      vac.release(held[pick]);
      held[pick] = held.back();
      held.pop_back();
    }
  }
}

void BM_CopySetChurn(benchmark::State& state) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  tree::CopySet copies(topo);
  util::Rng rng(5);
  std::vector<tree::CopyPlacement> held;
  for (auto _ : state) {
    if (held.empty() || rng.bernoulli(0.55)) {
      const std::uint64_t size = std::uint64_t{1}
                                 << rng.below(topo.height() + 1);
      held.push_back(copies.place(size));
    } else {
      const std::uint64_t pick = rng.below(held.size());
      copies.remove(held[pick]);
      held[pick] = held.back();
      held.pop_back();
    }
  }
}

// The pack path behind every repack round: pack_tasks is
// pack_tasks_ordered in decreasing size, so this times the per-size-class
// bucket pass, then one CopySet::place() per task.
void BM_PackTasks(benchmark::State& state) {
  const tree::Topology topo(1024);
  util::Rng rng(7);
  std::vector<core::ActiveTask> tasks;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const std::uint64_t size = std::uint64_t{1} << rng.below(8);
    tasks.push_back({core::Task{static_cast<core::TaskId>(i), size},
                     tree::kInvalidNode});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::pack_tasks(topo, tasks));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

// One full delta-planning round over a live machine through repack_into
// with a reused CopySet and scratch: the steady-state cost A_M pays per
// triggered reallocation (bucket the active set, rebuild the canonical
// layout into the recycled CopySet, diff against current nodes). The
// state is scattered by A_B so the plan is non-trivial, and it is never
// applied, so every iteration replans the same round.
void BM_PlanRepackScratch(benchmark::State& state) {
  const tree::Topology topo(static_cast<std::uint64_t>(state.range(0)));
  core::MachineState machine(topo);
  util::Rng rng(11);
  auto scatter = core::make_allocator("basic", topo);
  const std::uint64_t target = topo.n_leaves() * 9 / 10;
  core::TaskId next_id = 0;
  while (machine.active_size() < target) {
    const std::uint64_t size = std::uint64_t{1}
                               << rng.below(topo.height() + 1);
    if (machine.active_size() + size > topo.n_leaves()) break;
    const core::Task task{next_id++, size};
    machine.place(task, scatter->place(task, machine));
  }
  tree::CopySet copies(topo);
  core::PackScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::repack_into(machine, copies, scratch));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(machine.active_count()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_AllocatorRun, greedy, "greedy")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AllocatorRun, basic, "basic")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AllocatorRun, optimal, "optimal")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AllocatorRun, dmix2, "dmix:d=2")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AllocatorRun, random, "random")
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_SmallTaskRun, greedy, "greedy")
    ->RangeMultiplier(4)
    ->Range(256, 262144)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_LoadTreeAssign)->RangeMultiplier(16)->Range(64, 262144);
BENCHMARK(BM_LoadTreeMinQuery)->RangeMultiplier(16)->Range(64, 262144);
BENCHMARK(BM_VacancyChurn)->RangeMultiplier(16)->Range(64, 65536);
BENCHMARK(BM_CopySetChurn)->RangeMultiplier(16)->Range(64, 65536);
BENCHMARK(BM_PackTasks)->RangeMultiplier(8)->Range(64, 4096);
BENCHMARK(BM_PlanRepackScratch)->RangeMultiplier(16)->Range(256, 65536);
