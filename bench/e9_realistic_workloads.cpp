// E9 -- the paper's motivating scenario: multi-user time-sharing.
//
// All shipped algorithms side by side on every workload campaign at a
// CM-5-scale machine: load ratio, reallocation counts, and migrated
// volume. No theorem is checked here; the table shows who wins where and
// that the ordering matches the theory (optimal <= dmix <= greedy <=
// oblivious baselines).
#include "bench_common.hpp"

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("scale", "workload scale factor", "1.0", util::Cli::Kind::kDouble);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const double scale = cli.get_double("scale");
  if (!util::check_option(
          "scale", [&] { workload::check_campaign_scale(scale); })) {
    return 1;
  }

  bench::banner("E9 / multi-user time-sharing",
                "Every algorithm on every campaign at N = " +
                    std::to_string(topo.n_leaves()) +
                    "; the ordering should match the theory.");

  const char* specs[] = {"optimal",  "dmix:d=1",    "dmix:d=2", "greedy",
                         "basic",    "dchoice:k=2", "random",   "roundrobin",
                         "leftmost"};

  util::Table table({"campaign", "allocator", "max_load", "L*", "ratio",
                     "reallocs", "migrated_size"});
  std::uint64_t violations = 0;
  sim::Engine engine(topo);

  for (const std::string& campaign : workload::campaign_names()) {
    util::Rng rng(cli.get_u64("seed"));
    const core::TaskSequence seq =
        workload::make_campaign(campaign, topo, rng, scale);

    std::uint64_t optimal_load = 0;
    for (const char* spec : specs) {
      auto alloc = core::make_allocator(spec, topo, 7);
      const auto result = engine.run(seq, *alloc);
      if (std::string(spec) == "optimal") optimal_load = result.max_load;
      // Sanity: nobody beats the optimal reallocating algorithm.
      if (result.max_load < optimal_load) ++violations;
      table.add(campaign, result.allocator, result.max_load,
                result.optimal_load, result.ratio(),
                result.reallocation_count, result.migrated_size);
    }
  }

  bench::emit(table, "Algorithm comparison across campaigns", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
