// E8 -- pricing "the trade": reallocation cost vs achieved load.
//
// The title's trade-off made concrete: sweep d on a fragmenting workload
// and price every reallocation's migrations on three interconnects (tree
// hops, hypercube Hamming routes, mesh Manhattan routes). Load falls as d
// shrinks while migration traffic rises; both columns come from the same
// runs.
#include "bench_common.hpp"

#include "core/factory.hpp"
#include "machines/migration_cost.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("d-max", "largest finite d in the sweep", "6",
             util::Cli::Kind::kU64);
  cli.option("campaign", "workload campaign", "steady-mix");
  cli.option("bytes-per-pe", "checkpoint bytes per PE", "1",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;
  if (!util::check_option("campaign", [&] {
        workload::check_campaign_name(cli.get("campaign"));
      })) {
    return 1;
  }

  const std::uint64_t n = cli.get_u64("n");
  const tree::Topology topo(n);

  bench::banner(
      "E8 / the reallocation trade",
      "Smaller d: lower load, more checkpoint traffic. Costs are priced in "
      "byte-hops on tree / hypercube / mesh interconnects.");

  util::Rng rng(cli.get_u64("seed"));
  const core::TaskSequence seq =
      workload::make_campaign(cli.get("campaign"), topo, rng, 1.0);

  const machines::MigrationCostModel tree_cost{
      topo, machines::Interconnect::kTree, cli.get_u64("bytes-per-pe")};
  const machines::MigrationCostModel cube_cost{
      topo, machines::Interconnect::kHypercube, cli.get_u64("bytes-per-pe")};
  const machines::MigrationCostModel mesh_cost{
      topo, machines::Interconnect::kMesh, cli.get_u64("bytes-per-pe")};

  util::Table table({"d", "max_load", "L*", "ratio", "reallocs",
                     "migrations", "tree_cost", "cube_cost", "mesh_cost"});

  auto run_one = [&](const std::string& label, const std::string& spec) {
    std::uint64_t tree_total = 0;
    std::uint64_t cube_total = 0;
    std::uint64_t mesh_total = 0;
    sim::EngineOptions options;
    options.on_reallocation = [&](std::span<const core::Migration> migs) {
      tree_total += tree_cost.total_cost(migs);
      cube_total += cube_cost.total_cost(migs);
      mesh_total += mesh_cost.total_cost(migs);
    };
    sim::Engine engine(topo, options);
    auto alloc = core::make_allocator(spec, topo);
    const auto result = engine.run(seq, *alloc);
    table.add(label, result.max_load, result.optimal_load, result.ratio(),
              result.reallocation_count, result.migration_count, tree_total,
              cube_total, mesh_total);
  };

  for (std::uint64_t d = 0; d <= cli.get_u64("d-max"); ++d) {
    run_one(std::to_string(d), "dmix:d=" + std::to_string(d));
  }
  run_one("inf", "dmix:d=inf");

  bench::emit(table,
              "Reallocation cost vs load, campaign '" + cli.get("campaign") +
                  "', N = " + std::to_string(n),
              cli);
  bench::verdict(0);
  return 0;
}
