// E12 -- "our results hold for any hierarchically decomposable machine".
//
// The algorithm family on arity-A machines (A = 2 is the paper's tree;
// A = 4 models a 2-D mesh decomposed into quadrants; A = 8 a 3-D mesh into
// octants). An arity-A machine with A = 2^k is the binary tree with task
// sizes restricted to powers of A, so the core allocators run unchanged on
// power-of-A event streams. For each machine the d-sweep reproduces the
// same trade-off shape as E3: A_C (d = 0) is optimal everywhere, load
// rises with d, and the no-reallocation staircase penalty grows with the
// machine height.
#include "bench_common.hpp"

#include <algorithm>
#include <string>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/sizes.hpp"
#include "workload/stressors.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E12 / hierarchically decomposable generalization",
      "Tree (A=2), quadtree/2-D mesh (A=4), octree/3-D mesh (A=8): the "
      "reallocation trade-off has the same shape on every decomposition.");

  struct Machine {
    std::uint64_t arity;
    std::uint64_t n_pes;
    const char* label;
  };
  const Machine machines[] = {
      {2, 1024, "binary tree (N=1024)"},
      {4, 1024, "quadtree / 2-D mesh (N=1024)"},
      {8, 512, "octree / 3-D mesh (N=512)"},
  };

  util::Table table({"machine", "workload", "policy", "d", "max_load", "L*",
                     "ratio", "reallocs", "ok"});
  std::uint64_t violations = 0;

  for (const Machine& m : machines) {
    const tree::Topology topo(m.n_pes);
    util::Rng rng(cli.get_u64("seed"));
    const core::TaskSequence steady =
        workload::arity_closed_loop(topo, m.arity, 4000, 0.85, rng);
    const core::TaskSequence stairs = workload::arity_staircase(topo, m.arity);
    // The greedy factor log_A N + 1: the binary proof's ceil((log2 N + 1)/2)
    // carried to arity A, in the simpler safe form.
    const std::uint64_t greedy_bound =
        workload::log_arity(m.n_pes, m.arity) + 1;

    sim::Engine engine(topo);
    auto run = [&](const core::TaskSequence& sequence,
                   const std::string& spec) {
      const auto allocator = core::make_allocator(spec, topo);
      return engine.run(sequence, *allocator);
    };

    const std::pair<const char*, const core::TaskSequence*> workloads[] = {
        {"steady", &steady}, {"staircase", &stairs}};

    for (const auto& [wname, sequence] : workloads) {
      for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
        const sim::SimResult r =
            run(*sequence, "dmix:d=" + std::to_string(d));
        // d = 0 must be exactly optimal on every machine (Theorem 3.1
        // generalizes); all runs must respect the greedy-style cap.
        bool ok = r.max_load <= (d + 1 + greedy_bound) *
                                    std::max<std::uint64_t>(r.optimal_load, 1);
        if (d == 0) ok = ok && r.max_load == r.optimal_load;
        if (!ok) ++violations;
        table.add(m.label, wname, "k-dmix", d, r.max_load, r.optimal_load,
                  r.ratio(), r.reallocation_count, ok);
      }
      const sim::SimResult greedy = run(*sequence, "greedy");
      const bool greedy_ok =
          greedy.max_load <=
          greedy_bound * std::max<std::uint64_t>(greedy.optimal_load, 1);
      if (!greedy_ok) ++violations;
      table.add(m.label, wname, "k-greedy", "-", greedy.max_load,
                greedy.optimal_load, greedy.ratio(), 0, greedy_ok);
      const sim::SimResult basic = run(*sequence, "basic");
      table.add(m.label, wname, "k-basic", "-", basic.max_load,
                basic.optimal_load, basic.ratio(), 0, true);
    }
  }

  bench::emit(table, "Generalized trade-off across decompositions", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
