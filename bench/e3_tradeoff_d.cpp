// E3 -- Theorem 4.2 (headline): the reallocation/load trade-off.
//
// For fixed N, sweep the reallocation parameter d and report the measured
// worst-case load ratio (over adversarial + stochastic workloads) against
// the paper's factor min{d+1, ceil((logN+1)/2)}. The curve should rise
// linearly in d and flatten at the greedy cap -- the paper's central
// prediction.
#include "bench_common.hpp"

#include <algorithm>

#include "adversary/det_adversary.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "util/plot.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("d-max", "largest finite d in the sweep", "8",
             util::Cli::Kind::kU64);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const std::uint64_t n = cli.get_u64("n");
  const tree::Topology topo(n);

  bench::banner(
      "E3 / Theorem 4.2 (headline trade-off)",
      "A_M(d) <= min{d+1, ceil((logN+1)/2)} * L*: load rises with d and "
      "saturates at the greedy cap; adversarial load >= "
      "ceil((min{d,logN}+1)/2).");

  util::Table table({"d", "adversarial_ratio", "stochastic_worst",
                     "lower_bound", "upper_bound", "reallocs",
                     "migrated_size", "ok"});
  std::uint64_t violations = 0;
  sim::Engine engine(topo);
  std::vector<double> measured_curve;
  std::vector<double> lower_curve;
  std::vector<double> upper_curve;

  auto run_d = [&](const std::string& spec, std::uint64_t d, bool infinite) {
    const std::uint64_t upper = util::det_upper_factor(n, d, infinite);
    const std::uint64_t lower = util::det_lower_factor(n, d, infinite);

    // Adversary sized to this d.
    adversary::DetAdversary adversary =
        adversary::DetAdversary::for_d(topo, d, infinite);
    auto alloc = core::make_allocator(spec, topo);
    const auto adv = engine.run_interactive(adversary, *alloc);
    if (adv.max_load > upper * adv.optimal_load) ++violations;
    if (adv.max_load < lower * adv.optimal_load) ++violations;

    // Stochastic campaigns.
    double stochastic_worst = 0.0;
    std::uint64_t reallocs = 0;
    std::uint64_t migrated = 0;
    for (const std::string& campaign : workload::campaign_names()) {
      util::Rng rng(cli.get_u64("seed") + d * 31);
      const auto seq = workload::make_campaign(campaign, topo, rng, 0.4);
      auto a = core::make_allocator(spec, topo);
      const auto result = engine.run(seq, *a);
      stochastic_worst = std::max(stochastic_worst, result.ratio());
      reallocs += result.reallocation_count;
      migrated += result.migrated_size;
      if (result.max_load > upper * result.optimal_load) ++violations;
    }

    const bool ok = adv.ratio() >= static_cast<double>(lower) &&
                    adv.ratio() <= static_cast<double>(upper);
    table.add(infinite ? "inf" : std::to_string(d), adv.ratio(),
              stochastic_worst, lower, upper, reallocs, migrated, ok);
    measured_curve.push_back(adv.ratio());
    lower_curve.push_back(static_cast<double>(lower));
    upper_curve.push_back(static_cast<double>(upper));
  };

  for (std::uint64_t d = 0; d <= cli.get_u64("d-max"); ++d) {
    run_d("dmix:d=" + std::to_string(d), d, false);
  }
  run_d("dmix:d=inf", 0, true);

  bench::emit(table,
              "Trade-off: reallocation parameter d vs load ratio (N = " +
                  std::to_string(n) + ")",
              cli);

  std::cout << "\nload ratio vs d (x axis: d = 0.." << cli.get_u64("d-max")
            << ", inf):\n"
            << util::multi_plot({{"measured (adversarial)", measured_curve},
                                 {"lower bound", lower_curve},
                                 {"upper bound", upper_curve}});
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
