// E5 -- Theorem 5.1: the oblivious randomized algorithm keeps
// max_tau E[L] <= (3 log N / log log N + 1) * L* without any reallocation.
//
// Sweep N; estimate both randomized load metrics over repeated trials on a
// near-full stochastic workload, and compare with the deterministic greedy
// bound to show where randomization wins.
#include "bench_common.hpp"

#include "sim/trials.hpp"
#include "util/math.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("sizes", "machine sizes to sweep", "16,64,256,1024,4096",
             util::Cli::Kind::kPow2List);
  cli.option("trials", "trials per configuration", "32",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E5 / Theorem 5.1",
      "Oblivious random placement: max_tau E[L] <= (3 logN/loglogN + 1) * "
      "L*, no reallocation needed.");

  util::Table table({"N", "L*", "max_t E[L]", "E[max L]", "paper_ratio",
                     "bound", "greedy_bound", "ok"});
  std::uint64_t violations = 0;

  for (const std::uint64_t n : cli.get_u64_list("sizes")) {
    const tree::Topology topo(n);
    util::Rng rng(cli.get_u64("seed") + n);
    workload::ClosedLoopParams params;
    params.n_events = 3000;
    params.utilization = 0.95;
    params.size = workload::SizeSpec::uniform_log(0, topo.height());
    const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

    const auto agg = sim::run_trials(
        topo, seq, "random",
        sim::TrialOptions{
            .trials = static_cast<std::size_t>(cli.get_u64("trials")),
            .seed = cli.get_u64("seed")});

    const double bound = util::rand_upper_factor(n);
    const bool ok = agg.paper_ratio() <= bound;
    if (!ok) ++violations;
    table.add(n, agg.optimal_load, agg.max_expected_load,
              agg.expected_max_load, agg.paper_ratio(), bound,
              util::det_upper_factor(n, 0, true), ok);
  }

  bench::emit(table, "Randomized allocation vs Theorem 5.1 bound", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
