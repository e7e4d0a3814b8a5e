// E1 -- Theorem 3.1: the constantly-reallocating algorithm A_C achieves
// exactly the optimal load L* on every task sequence.
//
// Sweep: machine sizes x workload campaigns (stochastic and adversarial);
// report measured max load vs L* and flag any run where they differ.
#include "bench_common.hpp"

#include "adversary/det_adversary.hpp"
#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("sizes", "machine sizes to sweep", "4,16,64,256,1024",
             util::Cli::Kind::kPow2List);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  bench::banner("E1 / Theorem 3.1",
                "A_C (reallocate on every arrival) achieves load == L* on "
                "every sequence.");

  util::Table table(
      {"N", "workload", "events", "max_load", "L*", "ratio", "ok"});
  std::uint64_t violations = 0;

  for (const std::uint64_t n : cli.get_u64_list("sizes")) {
    const tree::Topology topo(n);
    sim::Engine engine(topo);

    for (const std::string& campaign : workload::campaign_names()) {
      util::Rng rng(cli.get_u64("seed") + n);
      const core::TaskSequence seq =
          workload::make_campaign(campaign, topo, rng, 0.5);
      auto alloc = core::make_allocator("optimal", topo);
      const auto result = engine.run(seq, *alloc);
      const bool ok = result.max_load == result.optimal_load;
      if (!ok) ++violations;
      table.add(n, campaign, result.events, result.max_load,
                result.optimal_load, result.ratio(), ok);
    }

    // The adaptive adversary should not move A_C off optimal either.
    adversary::DetAdversary adversary(topo, topo.height());
    auto alloc = core::make_allocator("optimal", topo);
    const auto result = engine.run_interactive(adversary, *alloc);
    const bool ok = result.max_load == result.optimal_load;
    if (!ok) ++violations;
    table.add(n, "adversary", result.events, result.max_load,
              result.optimal_load, result.ratio(), ok);
  }

  bench::emit(table, "A_C load vs optimal", cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
