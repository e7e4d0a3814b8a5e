// E11 -- user-visible slowdown (Section 2's interpretation of load).
//
// "When tasks allocated to a single PE are time-shared in a round-robin
// fashion, the worst slowdown ever experienced by a user is proportional
// to the maximum load of any PE in the submachine allocated to it."
//
// For each algorithm on a near-full multi-user workload: the distribution
// of per-task slowdowns (mean / p95 / worst). This translates the paper's
// load bounds into what a user actually feels, and shows the reallocation
// trade in those terms.
#include "bench_common.hpp"

#include <algorithm>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("campaign", "workload campaign", "steady-mix");
  if (!bench::parse_standard(cli, argc, argv)) return 1;
  if (!util::check_option("campaign", [&] {
        workload::check_campaign_name(cli.get("campaign"));
      })) {
    return 1;
  }

  const tree::Topology topo(cli.get_u64("n"));

  bench::banner("E11 / user-visible slowdown",
                "Per-task round-robin slowdown distribution per algorithm; "
                "worst slowdown is bounded by the algorithm's max load.");

  util::Rng rng(cli.get_u64("seed"));
  const core::TaskSequence seq =
      workload::make_campaign(cli.get("campaign"), topo, rng, 1.0);

  util::Table table({"allocator", "max_load", "mean_slowdown", "p50", "p95",
                     "worst", "ok"});
  std::uint64_t violations = 0;

  sim::EngineOptions options;
  options.record_slowdowns = true;
  sim::Engine engine(topo, options);

  for (const char* spec : {"optimal", "dmix:d=1", "dmix:d=2", "greedy",
                           "basic", "dchoice:k=2", "random", "leftmost"}) {
    auto alloc = core::make_allocator(spec, topo, 7);
    const auto result = engine.run(seq, *alloc);

    std::vector<double> sample;
    sample.reserve(result.task_slowdowns.size());
    for (const std::uint64_t s : result.task_slowdowns) {
      sample.push_back(static_cast<double>(s));
    }
    const util::Summary summary = util::summarize(sample);

    const bool ok = result.worst_slowdown <= result.max_load;
    if (!ok) ++violations;
    table.add(result.allocator, result.max_load, result.mean_slowdown,
              summary.median, summary.p95, result.worst_slowdown, ok);
  }

  bench::emit(table,
              "Slowdown distribution, campaign '" + cli.get("campaign") +
                  "', N = " + std::to_string(topo.n_leaves()),
              cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
