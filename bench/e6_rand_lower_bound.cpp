// E6 -- Theorem 5.2: on the random sequence sigma_r, every
// no-reallocation algorithm (deterministic or randomized) suffers expected
// load >= (1/7)(log N / log log N)^(1/3) * L*.
//
// Sweep N; draw sigma_r repeatedly, run each no-reallocation algorithm,
// and report the mean load ratio next to the paper's lower-bound factor.
// Reallocating A_M(d=1) is included to show the bound does NOT apply once
// reallocation is allowed.
#include "bench_common.hpp"

#include "adversary/rand_sequence.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("sizes", "machine sizes to sweep", "256,1024,4096,65536",
             util::Cli::Kind::kPow2List);
  cli.option("draws", "independent sigma_r draws per N", "20",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E6 / Theorem 5.2",
      "sigma_r forces expected load >= (1/7)(logN/loglogN)^(1/3) * L* for "
      "every no-reallocation algorithm; reallocation escapes the bound.");

  const char* no_realloc[] = {"greedy", "basic", "random", "dchoice:k=2",
                              "roundrobin"};

  util::Table table({"N", "allocator", "mean_ratio", "min", "max",
                     "lower_bound", "ok"});
  std::uint64_t violations = 0;
  const std::uint64_t draws = cli.get_u64("draws");

  for (const std::uint64_t n : cli.get_u64_list("sizes")) {
    const tree::Topology topo(n);
    const double bound = util::rand_lower_factor(n);
    sim::Engine engine(topo);

    // Pre-draw the sequences so every algorithm sees the same set.
    std::vector<core::TaskSequence> sequences;
    util::Rng rng(cli.get_u64("seed") + n * 3);
    for (std::uint64_t k = 0; k < draws; ++k) {
      sequences.push_back(adversary::random_lb_sequence(topo, rng));
    }

    for (const char* spec : no_realloc) {
      util::RunningStats ratios;
      for (std::uint64_t k = 0; k < draws; ++k) {
        auto alloc = core::make_allocator(spec, topo, 100 + k);
        const auto result = engine.run(sequences[k], *alloc);
        ratios.add(result.ratio());
      }
      const bool ok = ratios.mean() >= bound;
      if (!ok) ++violations;
      table.add(n, spec, ratios.mean(), ratios.min(), ratios.max(), bound,
                ok);
    }

    // Contrast: A_M(d=1) reallocates and dodges the lower bound.
    util::RunningStats realloc_ratios;
    for (std::uint64_t k = 0; k < draws; ++k) {
      auto alloc = core::make_allocator("dmix:d=1", topo);
      const auto result = engine.run(sequences[k], *alloc);
      realloc_ratios.add(result.ratio());
    }
    table.add(n, "dmix:d=1 (realloc)", realloc_ratios.mean(),
              realloc_ratios.min(), realloc_ratios.max(), bound, true);
  }

  bench::emit(table, "sigma_r expected load vs Theorem 5.2 bound", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
