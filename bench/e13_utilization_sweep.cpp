// E13 -- load ratio vs offered utilization.
//
// The theorems bound the worst case; operators care where their operating
// point sits. Sweeping the closed-loop target utilization from 30% to
// 120% of capacity (the model lets demand exceed N -- tasks then share
// PEs by design) shows how each algorithm's ratio degrades with pressure:
// reallocation keeps the ratio pinned at 1 at every utilization, greedy
// drifts up as fragmentation opportunities multiply, and the oblivious
// baselines degrade fastest exactly where the machine is busiest.
#include "bench_common.hpp"

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/plot.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "1024",
             util::Cli::Kind::kPow2);
  cli.option("events", "events per run", "4000",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));

  bench::banner("E13 / utilization sweep",
                "Competitive ratio vs offered load; reallocation stays "
                "optimal at every pressure level.");

  const double utilizations[] = {0.3, 0.5, 0.7, 0.85, 0.95, 1.0, 1.2};
  const char* specs[] = {"optimal", "dmix:d=2", "greedy", "basic",
                         "dchoice:k=2", "random"};

  util::Table table({"utilization", "allocator", "max_load", "L*", "ratio"});
  std::vector<std::pair<std::string, std::vector<double>>> curves;
  for (const char* spec : specs) curves.emplace_back(spec, std::vector<double>{});

  std::uint64_t violations = 0;
  sim::Engine engine(topo);

  for (const double utilization : utilizations) {
    util::Rng rng(cli.get_u64("seed"));
    workload::ClosedLoopParams params;
    params.n_events = cli.get_u64("events");
    // The model allows demand above capacity: tasks share PEs. The
    // closed-loop generator caps at 1.0 internally, so emulate >1 by
    // raising warmup pressure.
    params.utilization = std::min(utilization, 1.0);
    params.warmup_tasks = utilization > 1.0
                              ? static_cast<std::uint64_t>(
                                    (utilization - 1.0) *
                                    static_cast<double>(topo.n_leaves()))
                              : 0;
    params.size = workload::SizeSpec::uniform_log(0, topo.height());
    const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

    for (std::size_t s = 0; s < std::size(specs); ++s) {
      auto alloc = core::make_allocator(specs[s], topo, 7);
      const auto result = engine.run(seq, *alloc);
      table.add(utilization, result.allocator, result.max_load,
                result.optimal_load, result.ratio());
      curves[s].second.push_back(result.ratio());
      // The reallocating algorithm must stay optimal everywhere.
      if (std::string(specs[s]) == "optimal" &&
          result.max_load != result.optimal_load) {
        ++violations;
      }
    }
  }

  bench::emit(table,
              "Ratio vs utilization, N = " + std::to_string(topo.n_leaves()),
              cli);
  std::cout << "\nratio vs utilization (x: 0.3 .. 1.2):\n"
            << util::multi_plot(curves);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
