// AB4 -- ablation: A_B's first-fit copy search vs best-fit.
//
// Lemma 2's guarantee (load <= ceil(total arrivals / N)) is proved for
// FIRST-fit copy search: its Claim 1 ("never two maximal vacant
// submachines of the same size") hinges on later requests probing copies
// in creation order. A best-fit variant (tightest sufficient copy) is the
// obvious "improvement" a practitioner might try; this ablation measures
// whether it ever exceeds the Lemma 2 bound and how the two compare on
// load across campaigns.
#include "bench_common.hpp"

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/math.hpp"
#include "workload/campaign.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "256",
             util::Cli::Kind::kPow2);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));

  bench::banner("AB4 / copy-search ablation (Lemma 2)",
                "First-fit carries the paper's proof; does best-fit break "
                "the ceil(S_total/N) bound in practice?");

  util::Table table({"campaign", "policy", "max_load", "L*", "lemma2_cap",
                     "within_lemma2", "ok"});
  std::uint64_t violations = 0;
  sim::Engine engine(topo);

  for (const std::string& campaign : workload::campaign_names()) {
    util::Rng rng(cli.get_u64("seed"));
    const core::TaskSequence seq =
        workload::make_campaign(campaign, topo, rng, 0.5);
    const std::uint64_t cap =
        util::ceil_div(seq.total_arrival_size(), topo.n_leaves());

    for (const char* spec : {"basic", "basic-bestfit"}) {
      auto alloc = core::make_allocator(spec, topo);
      const auto result = engine.run(seq, *alloc);
      const bool within = result.max_load <= cap;
      // Only the first-fit variant is GUARANTEED to stay within Lemma 2.
      const bool ok = std::string(spec) != "basic" || within;
      if (!ok) ++violations;
      table.add(campaign, result.allocator, result.max_load,
                result.optimal_load, cap, within, ok);
    }
  }

  bench::emit(table,
              "First-fit vs best-fit copies, N = " +
                  std::to_string(topo.n_leaves()),
              cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
