// Mesh partitioning on a quadtree-decomposable machine.
//
//   ./mesh_partitioning [--side 32] [--events 4000] [--seed 1]
//
// A side x side 2-D mesh (side a power of two) decomposes into quadrants;
// users request square power-of-4 partitions. A quadtree machine is the
// binary tree with task sizes restricted to powers of 4, so the paper's
// allocators run on it unchanged and show the same reallocation trade-off
// the paper proves on the binary tree.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("side", "mesh side length (power of two, at most 1024)", "32",
             util::Cli::Kind::kPow2)
      .option("events", "workload events", "4000", util::Cli::Kind::kU64)
      .option("seed", "workload seed", "1", util::Cli::Kind::kU64);
  if (!cli.parse(argc, argv)) return 1;

  // Side 1024 gives N = 2^20, the largest machine any test or benchmark
  // runs. Side 2^14 already asks LoadTree for gigabytes, and side 2^32
  // wraps side * side to 0.
  constexpr std::uint64_t kMaxSide = 1024;
  const std::uint64_t side = cli.get_u64("side");
  if (side > kMaxSide) {
    std::fprintf(stderr, "option --side must be at most %llu, got %llu\n%s",
                 static_cast<unsigned long long>(kMaxSide),
                 static_cast<unsigned long long>(side),
                 cli.usage(argv[0]).c_str());
    return 1;
  }
  // side x side PEs = 4^(log2 side) leaves of a quadtree.
  const tree::Topology topo(side * side);
  std::printf("mesh %llu x %llu = %llu PEs, quadtree height %u\n\n",
              static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(topo.n_leaves()),
              util::exact_log2(side));

  util::Rng rng(cli.get_u64("seed"));
  const core::TaskSequence events = workload::arity_closed_loop(
      topo, 4, cli.get_u64("events"), 0.85, rng);

  sim::Engine engine(topo);
  auto run = [&](const std::string& spec) {
    const auto allocator = core::make_allocator(spec, topo);
    return engine.run(events, *allocator);
  };

  util::Table table(
      {"policy", "d", "max_load", "L*", "ratio", "reallocs", "migrations"});
  for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
    const sim::SimResult r = run("dmix:d=" + std::to_string(d));
    table.add("k-dmix", d, r.max_load, r.optimal_load, r.ratio(),
              r.reallocation_count, r.migration_count);
  }
  const sim::SimResult greedy = run("greedy");
  table.add("k-greedy", "-", greedy.max_load, greedy.optimal_load,
            greedy.ratio(), 0, 0);
  const sim::SimResult basic = run("basic");
  table.add("k-basic", "-", basic.max_load, basic.optimal_load,
            basic.ratio(), 0, 0);

  table.print(std::cout, "Quadrant allocation on the mesh");
  return 0;
}
