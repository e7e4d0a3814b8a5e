// Interactive explorer for the paper's headline trade-off: reallocation
// frequency (d) versus achieved load.
//
//   ./tradeoff_explorer [--n 1024] [--d-max 8] [--campaign staircase]
//
// For each d it reports the measured worst load over the chosen campaign,
// the paper's upper bound min{d+1, ceil((logN+1)/2)}, the reallocation
// count, and the migrated volume -- the two sides of "the trade".
#include <iostream>
#include <stdexcept>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "number of PEs (power of two)", "1024",
             util::Cli::Kind::kPow2)
      .option("d-max", "largest reallocation parameter to sweep", "8",
              util::Cli::Kind::kU64)
      .option("campaign", "workload campaign name", "staircase")
      .option("seed", "workload RNG seed", "1", util::Cli::Kind::kU64)
      .option("csv", "write the sweep to this CSV path", "");
  if (!cli.parse(argc, argv)) return 1;
  if (!util::check_option("campaign", [&] {
        workload::check_campaign_name(cli.get("campaign"));
      })) {
    return 1;
  }

  const tree::Topology topo(cli.get_u64("n"));
  util::Rng rng(cli.get_u64("seed"));
  const core::TaskSequence sequence =
      workload::make_campaign(cli.get("campaign"), topo, rng);

  util::Table table({"d", "max_load", "L*", "ratio", "paper_bound",
                     "reallocs", "migrated_size"});
  sim::Engine engine(topo);
  const std::uint64_t d_max = cli.get_u64("d-max");
  for (std::uint64_t d = 0; d <= d_max; ++d) {
    auto allocator = core::make_allocator("dmix:d=" + std::to_string(d), topo);
    const auto result = engine.run(sequence, *allocator);
    table.add(d, result.max_load, result.optimal_load, result.ratio(),
              util::det_upper_factor(topo.n_leaves(), d),
              result.reallocation_count, result.migrated_size);
  }
  // The d = infinity endpoint (pure greedy).
  auto greedy = core::make_allocator("dmix:d=inf", topo);
  const auto inf_result = engine.run(sequence, *greedy);
  table.add("inf", inf_result.max_load, inf_result.optimal_load,
            inf_result.ratio(),
            util::det_upper_factor(topo.n_leaves(), 0, true),
            inf_result.reallocation_count, inf_result.migrated_size);

  table.print(std::cout,
              "Reallocation/load trade-off on campaign '" +
                  cli.get("campaign") + "', N = " +
                  std::to_string(topo.n_leaves()));
  const std::string csv = cli.get("csv");
  try {
    sim::write_csv_file(table, csv);
  } catch (const std::runtime_error&) {
    std::cerr << "cannot write " << csv << "\n";
    return 1;
  }
  return 0;
}
