// A day in the life of a time-shared partitionable machine (CM-5-like).
//
//   ./timeshare_cluster [--n 256] [--scale 1.0] [--seed 42]
//
// Generates the named multi-user campaigns from the workload library,
// runs every shipped allocation algorithm over each, and reports load,
// reallocation traffic, and fat-tree congestion at peak.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/factory.hpp"
#include "machines/fat_tree.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "util/cli.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "number of PEs (power of two)", "256",
             util::Cli::Kind::kPow2)
      .option("scale", "workload scale factor", "1.0", util::Cli::Kind::kDouble)
      .option("seed", "workload RNG seed", "42", util::Cli::Kind::kU64)
      .option("csv", "write results to this CSV path", "");
  if (!cli.parse(argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const double scale = cli.get_double("scale");
  if (!util::check_option(
          "scale", [&] { workload::check_campaign_scale(scale); })) {
    return 1;
  }

  const std::vector<std::string> algorithms = {
      "optimal", "greedy", "dmix:d=1", "dmix:d=2", "basic",
      "random",  "dchoice:k=2", "roundrobin"};

  for (const std::string& campaign : workload::campaign_names()) {
    util::Rng rng(cli.get_u64("seed"));
    const core::TaskSequence sequence =
        workload::make_campaign(campaign, topo, rng, scale);

    sim::Engine engine(topo);
    std::vector<sim::SimResult> results;
    for (const std::string& spec : algorithms) {
      auto allocator = core::make_allocator(spec, topo, 7);
      results.push_back(engine.run(sequence, *allocator));
    }
    sim::results_table(results).print(
        std::cout, "campaign '" + campaign + "' on " +
                       std::to_string(topo.n_leaves()) + " PEs (" +
                       std::to_string(sequence.size()) + " events)");
    std::printf("\n");

    const std::string csv = cli.get("csv");
    if (!csv.empty()) {
      const std::string path = csv + "." + campaign + ".csv";
      try {
        sim::write_csv_file(sim::results_table(results), path);
      } catch (const std::runtime_error&) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
