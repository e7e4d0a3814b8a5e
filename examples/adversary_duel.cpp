// Pit the Theorem 4.3 adaptive adversary against an allocator of your
// choice and (optionally) dump the sequence it constructs.
//
//   ./adversary_duel [--n 256] [--allocator greedy] [--phases 0]
//                    [--trace out.csv]
//
// phases = 0 selects the maximum log2(N).
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "adversary/det_adversary.hpp"
#include "adversary/potential.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "util/cli.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "number of PEs (power of two)", "256",
             util::Cli::Kind::kPow2)
      .option("allocator", "allocator spec (see factory)", "greedy")
      .option("phases", "adversary phases (0 = log2 N)", "0",
              util::Cli::Kind::kU64)
      .option("seed", "seed for randomized allocators", "1",
              util::Cli::Kind::kU64)
      .option("trace", "write the constructed sequence to this CSV", "");
  if (!cli.parse(argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  if (!util::check_option("allocator", [&] {
        (void)core::make_allocator(cli.get("allocator"), topo);
      })) {
    return 1;
  }
  std::uint64_t phases = cli.get_u64("phases");
  if (phases == 0 || phases > topo.height()) phases = topo.height();

  adversary::DetAdversary adversary(topo, phases);
  auto allocator =
      core::make_allocator(cli.get("allocator"), topo, cli.get_u64("seed"));

  core::TaskSequence recorded;
  sim::Engine engine(topo);
  const auto result =
      engine.run_interactive(adversary, *allocator, &recorded);

  std::vector<sim::SimResult> results{result};
  sim::results_table(results).print(
      std::cout, "Adversary (" + std::to_string(phases) + " phases) vs " +
                     allocator->name());
  std::printf(
      "\nforced load (Theorem 4.3): >= %llu; the algorithm reached %llu\n",
      static_cast<unsigned long long>(adversary.forced_load()),
      static_cast<unsigned long long>(result.max_load));

  const std::string trace = cli.get("trace");
  if (!trace.empty()) {
    try {
      workload::write_trace_file(recorded, trace);
    } catch (const std::runtime_error&) {
      std::fprintf(stderr, "cannot write %s\n", trace.c_str());
      return 1;
    }
    std::printf("recorded %zu events to %s\n", recorded.size(),
                trace.c_str());
  }
  return 0;
}
