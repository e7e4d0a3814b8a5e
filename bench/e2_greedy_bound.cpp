// E2 -- Theorem 4.1: the greedy algorithm A_G stays within
// ceil((log N + 1)/2) * L*, and the adaptive adversary shows the factor
// really grows like Theta(log N).
//
// Sweep N; for each, report (a) the worst measured ratio over stochastic
// campaigns and (b) the ratio forced by the log N-phase adversary, next to
// the paper's upper bound and the Theorem 4.3 lower bound.
#include "bench_common.hpp"

#include <algorithm>

#include "adversary/det_adversary.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("sizes", "machine sizes to sweep",
             "4,16,64,256,1024,4096,16384",
             util::Cli::Kind::kPow2List);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner(
      "E2 / Theorem 4.1 + 4.3",
      "A_G <= ceil((logN+1)/2) * L*; the adversary forces >= "
      "ceil((logN+1)/2) (lower bound), so the greedy ratio grows with log N.");

  util::Table table({"N", "logN", "stochastic_worst", "adversarial",
                     "lower_bound", "upper_bound", "ok"});
  std::uint64_t violations = 0;

  for (const std::uint64_t n : cli.get_u64_list("sizes")) {
    const tree::Topology topo(n);
    const std::uint64_t upper = util::det_upper_factor(n, 0, true);
    const std::uint64_t lower = util::det_lower_factor(n, 0, true);
    sim::Engine engine(topo);

    double stochastic_worst = 0.0;
    for (const std::string& campaign : workload::campaign_names()) {
      util::Rng rng(cli.get_u64("seed") + n * 13);
      const auto seq = workload::make_campaign(campaign, topo, rng, 0.4);
      auto greedy = core::make_allocator("greedy", topo);
      const auto result = engine.run(seq, *greedy);
      stochastic_worst = std::max(stochastic_worst, result.ratio());
      if (result.max_load > upper * result.optimal_load) ++violations;
    }

    adversary::DetAdversary adversary(topo, topo.height());
    auto greedy = core::make_allocator("greedy", topo);
    const auto adversarial = engine.run_interactive(adversary, *greedy);
    if (adversarial.max_load > upper * adversarial.optimal_load) ++violations;
    if (adversarial.max_load < lower * adversarial.optimal_load) ++violations;

    table.add(n, topo.height(), stochastic_worst, adversarial.ratio(),
              lower, upper,
              adversarial.ratio() >= static_cast<double>(lower) &&
                  adversarial.ratio() <= static_cast<double>(upper));
  }

  bench::emit(table, "Greedy competitive ratio vs N", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
