// Quickstart: allocate a handful of tasks on a 16-PE tree machine and
// watch the load with and without reallocation.
//
//   ./quickstart
//
// Walks the public API end to end: build a topology, write a task
// sequence, run it through two allocation algorithms, and inspect loads.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "core/step.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/viz.hpp"
#include "util/histogram.hpp"

int main() {
  using namespace partree;

  // A 16-PE machine: a complete binary tree with 16 leaves.
  const tree::Topology topo(16);

  // Users arrive asking for power-of-two submachines and later leave.
  core::TaskSequence sequence;
  const auto alice = sequence.arrive(4);    // Alice wants 4 PEs
  const auto bob = sequence.arrive(8);      // Bob wants half the machine
  const auto carol = sequence.arrive(4);    // Carol fills the rest
  sequence.depart(bob);                     // Bob leaves...
  const auto dave = sequence.arrive(2);     // ...and Dave arrives
  const auto erin = sequence.arrive(8);     // Erin wants half the machine
  sequence.depart(alice);
  sequence.depart(carol);
  sequence.depart(dave);
  sequence.depart(erin);

  std::printf("sequence: %zu events, peak demand %llu PEs, optimal load %llu\n\n",
              sequence.size(),
              static_cast<unsigned long long>(sequence.peak_active_size()),
              static_cast<unsigned long long>(sequence.optimal_load(16)));

  // Run the same sequence through several allocation algorithms.
  sim::Engine engine(topo);
  std::vector<sim::SimResult> results;
  for (const char* spec : {"greedy", "basic", "dmix:d=1", "optimal"}) {
    auto allocator = core::make_allocator(spec, topo);
    results.push_back(engine.run(sequence, *allocator));
  }

  sim::results_table(results).print(std::cout,
                                    "Load on a 16-PE tree machine");

  // Replay greedy by hand, one step at a time, to look inside the
  // machine: the per-PE loads at the first peak, and the machine
  // mid-flight.
  core::MachineState state(topo);
  auto greedy = core::make_allocator("greedy", topo);
  std::uint64_t peak = 0;
  util::Histogram peak_loads;
  std::string after_five;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    core::apply_event(state, *greedy, sequence[i]);
    if (state.max_load() > peak) {
      peak = state.max_load();
      peak_loads.clear();
      for (const std::uint64_t pe_load : state.pe_loads()) {
        peak_loads.add(pe_load);
      }
    }
    if (i + 1 == 5) after_five = sim::render_machine(state);
  }

  std::printf("\nPer-PE thread counts at the greedy algorithm's peak:\n%s",
              peak_loads.render().c_str());
  std::printf("\nMachine after the first 5 events (greedy placements):\n%s",
              after_five.c_str());
  return 0;
}
