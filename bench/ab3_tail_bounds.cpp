// AB3 -- the machinery behind Theorem 5.1: Hoeffding tails (Lemma 4).
//
// Oblivious random placement makes each task hit a fixed PE independently
// with probability size/N, so a PE's load is a sum of Bernoulli trials
// with mean mu <= L*. Lemma 4 bounds P(load >= m) <= (mu e / m)^m, and a
// union bound gives P(max load >= m) <= N (mu e/m)^m. This experiment
// measures both tails empirically (many seeds, N size-1 tasks so mu = 1
// exactly) and prints them next to the analytic bounds.
#include "bench_common.hpp"

#include <cmath>

#include "analysis/load_distribution.hpp"
#include "core/randomized.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("trials", "independent placements", "4000",
             util::Cli::Kind::kPositive);
  cli.option("m-max", "largest tail threshold", "8", util::Cli::Kind::kU64);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const std::uint64_t n = topo.n_leaves();
  const auto trials = static_cast<std::size_t>(cli.get_u64("trials"));

  bench::banner("AB3 / Lemma 4 (Hoeffding) tails",
                "Random placement of N unit tasks (mu = 1 per PE): "
                "P(pe0 >= m) <= (e/m)^m and P(max >= m) <= N (e/m)^m.");

  // One trial: place N size-1 tasks uniformly; record PE 0's load and the
  // machine max.
  std::vector<std::uint64_t> pe0_loads(trials);
  std::vector<std::uint64_t> max_loads(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    core::MachineState state(topo);
    core::RandomizedAllocator alloc(topo,
                                    cli.get_u64("seed") + trial);
    for (core::TaskId id = 0; id < n; ++id) {
      const core::Task task{id, 1};
      state.place(task, alloc.place(task, state));
    }
    pe0_loads[trial] = state.loads().pe_load(0);
    max_loads[trial] = state.max_load();
  }

  util::Table table({"m", "P(pe0>=m)", "exact", "hoeffding", "pe0_ok",
                     "P(max>=m)", "union_bound", "max_ok"});
  std::uint64_t violations = 0;
  const std::vector<std::uint64_t> unit_sizes(n, 1);

  for (std::uint64_t m = 2; m <= cli.get_u64("m-max"); ++m) {
    std::size_t pe0_hits = 0;
    std::size_t max_hits = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      if (pe0_loads[t] >= m) ++pe0_hits;
      if (max_loads[t] >= m) ++max_hits;
    }
    const double pe0_p =
        static_cast<double>(pe0_hits) / static_cast<double>(trials);
    const double max_p =
        static_cast<double>(max_hits) / static_cast<double>(trials);
    const double exact = analysis::pe_load_tail(unit_sizes, n, m);
    const double bound = util::hoeffding_tail(1.0, m);
    const double union_bound =
        std::min(1.0, static_cast<double>(n) * bound);
    // The empirical tail must track the EXACT Poisson-binomial tail
    // within Monte-Carlo noise (3 standard errors) and sit under the
    // Hoeffding bound with the same slack.
    const double se =
        3.0 * std::sqrt(std::max(exact, 1e-12) *
                        (1.0 - std::min(exact, 1.0)) /
                        static_cast<double>(trials)) +
        1e-9;
    const bool pe0_ok = std::abs(pe0_p - exact) <= se + 1e-4 &&
                        exact <= bound + 1e-12;
    const bool max_ok = max_p <= union_bound + 1e-9;
    if (!pe0_ok) ++violations;
    if (!max_ok) ++violations;
    table.add(m, pe0_p, exact, bound, pe0_ok, max_p, union_bound, max_ok);
  }

  bench::emit(table,
              "Empirical vs analytic tails, N = " + std::to_string(n) +
                  ", trials = " + std::to_string(trials),
              cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
