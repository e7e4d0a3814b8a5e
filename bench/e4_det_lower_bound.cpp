// E4 -- Theorem 4.3: the adaptive adversary forces EVERY deterministic
// d-reallocation algorithm to load >= ceil((min{d, logN}+1)/2) * L*.
//
// Grid: machine sizes x every deterministic allocator we ship, with the
// adversary sized to each allocator's reallocation budget. L* is 1 for
// every constructed sequence, so the measured load IS the ratio.
#include "bench_common.hpp"

#include "adversary/det_adversary.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("sizes", "machine sizes to sweep", "16,64,256,1024,4096",
             util::Cli::Kind::kPow2List);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E4 / Theorem 4.3",
      "No deterministic d-reallocation algorithm beats "
      "ceil((min{d,logN}+1)/2): the adversary forces at least that load "
      "(L* = 1).");

  struct Target {
    std::string spec;
    std::uint64_t d;
    bool infinite;
  };
  const Target targets[] = {
      {"greedy", 0, true},      {"basic", 0, true},
      {"leftmost", 0, true},    {"roundrobin", 0, true},
      {"dmix:d=1", 1, false},   {"dmix:d=2", 2, false},
      {"dmix:d=3", 3, false},   {"dmix:d=4", 4, false},
      {"dmix:d=inf", 0, true},
  };

  util::Table table(
      {"N", "allocator", "phases", "forced_load", "measured", "ok"});
  std::uint64_t violations = 0;

  for (const std::uint64_t n : cli.get_u64_list("sizes")) {
    const tree::Topology topo(n);
    sim::Engine engine(topo);
    for (const Target& target : targets) {
      adversary::DetAdversary adversary =
          adversary::DetAdversary::for_d(topo, target.d, target.infinite);
      auto alloc = core::make_allocator(target.spec, topo);
      const auto result = engine.run_interactive(adversary, *alloc);
      const bool ok = result.max_load >= adversary.forced_load() &&
                      result.optimal_load == 1;
      if (!ok) ++violations;
      const std::uint64_t phases =
          target.infinite ? topo.height()
                          : std::min<std::uint64_t>(target.d, topo.height());
      table.add(n, result.allocator, phases, adversary.forced_load(),
                result.max_load, ok);
    }
  }

  bench::emit(table, "Adversarially forced load (optimal load is 1)", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
