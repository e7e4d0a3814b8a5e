// AB1 -- ablation: what does A_R's largest-first order actually buy?
//
// Two measurements:
//  (1) Copy count. Lemma 1 proves the decreasing-size first-fit packing
//      uses exactly ceil(S/N) copies. Interestingly, the Lemma 2 argument
//      shows ANY first-fit order achieves the same for a one-shot pack of
//      a static set -- and the table confirms it empirically. The sort is
//      what makes the one-paragraph Lemma 1 proof possible, not a
//      quantitative copy saving.
//  (2) Stability. A_M repacks repeatedly as the task population churns;
//      orders differ in how many tasks physically move between repacks.
//      The second table measures migrations per repack on a churning
//      population. (Empirically, increasing-size order is the most
//      stable: small tasks dominate the population and keep their slots
//      when packed first, whereas largest-first reshuffles them whenever
//      a big task changes. A downstream implementation could exploit
//      this, since the copy-count guarantee holds for any order.)
#include "bench_common.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/packing.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/sizes.hpp"

namespace {

using namespace partree;

std::uint64_t copies_used(const std::vector<core::PackedTask>& packed) {
  std::uint64_t copies = 0;
  for (const core::PackedTask& p : packed) {
    copies = std::max(copies, p.placement.copy + 1);
  }
  return copies;
}

struct Variant {
  const char* label;
  core::PackOrder order;
};

constexpr Variant kVariants[] = {
    {"decreasing (A_R)", core::PackOrder::kDecreasingSize},
    {"increasing", core::PackOrder::kIncreasingSize},
    {"arrival order", core::PackOrder::kArrivalOrder},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("n", "machine size (power of two)", "256",
             util::Cli::Kind::kPow2);
  cli.option("trials", "random task sets per configuration", "300",
             util::Cli::Kind::kPositive);
  cli.option("churn-steps", "repack rounds in the stability test", "400",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const std::uint64_t trials = cli.get_u64("trials");

  bench::banner("AB1 / packing-order ablation (Lemma 1)",
                "(1) any first-fit order packs a static set into ceil(S/N) "
                "copies; (2) orders differ in placement churn across "
                "repeated repacks (smallest-first is the most stable).");

  // ---- Part 1: one-shot copy counts -----------------------------------
  util::Table copies_table({"order", "size_dist", "optimal_hits", "trials",
                            "mean_overhead", "worst_overhead", "lemma1_ok"});
  std::uint64_t violations = 0;

  const workload::SizeSpec dists[] = {
      workload::SizeSpec::uniform_log(0, topo.height()),
      workload::SizeSpec::geometric(0.6, topo.height()),
      workload::SizeSpec::zipf_log(1.0, topo.height()),
  };

  for (const Variant& variant : kVariants) {
    for (const workload::SizeSpec& dist : dists) {
      util::Rng rng(cli.get_u64("seed"));
      std::uint64_t optimal_hits = 0;
      util::RunningStats overhead;
      for (std::uint64_t t = 0; t < trials; ++t) {
        const std::uint64_t count = 1 + rng.below(topo.n_leaves() / 2);
        std::vector<core::ActiveTask> tasks;
        std::uint64_t total = 0;
        for (std::uint64_t k = 0; k < count; ++k) {
          const std::uint64_t size = dist.sample(rng, topo.n_leaves());
          tasks.push_back({core::Task{k, size}, tree::kInvalidNode});
          total += size;
        }
        const auto packed =
            core::pack_tasks_ordered(topo, tasks, variant.order);
        const std::uint64_t used = copies_used(packed);
        const std::uint64_t optimal = util::ceil_div(total, topo.n_leaves());
        if (used == optimal) ++optimal_hits;
        overhead.add(static_cast<double>(used) -
                     static_cast<double>(optimal));
      }
      // Lemma 1 must hold for the paper's order on every trial.
      const bool lemma_ok =
          variant.order != core::PackOrder::kDecreasingSize ||
          optimal_hits == trials;
      if (!lemma_ok) ++violations;
      copies_table.add(variant.label, dist.describe(), optimal_hits, trials,
                       overhead.mean(), overhead.max(), lemma_ok);
    }
  }
  bench::emit(copies_table,
              "Part 1: copies above ceil(S/N) by packing order, N = " +
                  std::to_string(topo.n_leaves()),
              cli);

  // ---- Part 2: placement stability under churn -------------------------
  // Maintain a population at ~75% utilization; each step departs one
  // random task, admits one fresh task, and repacks. Count tasks whose
  // node changed relative to the previous repack.
  util::Table churn_table({"order", "steps", "mean_migrations_per_repack",
                           "p95", "moved_fraction"});
  const std::uint64_t steps = cli.get_u64("churn-steps");
  const workload::SizeSpec churn_dist =
      workload::SizeSpec::geometric(0.5, topo.height() - 1);

  for (const Variant& variant : kVariants) {
    util::Rng rng(cli.get_u64("seed") + 99);
    std::vector<core::ActiveTask> population;
    core::TaskId next_id = 0;
    std::uint64_t active_size = 0;
    const std::uint64_t target = topo.n_leaves() * 3 / 4;
    while (active_size < target) {
      const std::uint64_t size = churn_dist.sample(rng, topo.n_leaves());
      population.push_back({core::Task{next_id++, size}, tree::kInvalidNode});
      active_size += size;
    }

    std::unordered_map<core::TaskId, tree::NodeId> previous;
    util::RunningStats moved;
    std::vector<double> moved_samples;
    for (std::uint64_t step = 0; step < steps; ++step) {
      // Churn: one out, one in.
      const std::uint64_t victim = rng.below(population.size());
      previous.erase(population[victim].task.id);
      population[victim] = population.back();
      population.pop_back();
      population.push_back(
          {core::Task{next_id++, churn_dist.sample(rng, topo.n_leaves())},
           tree::kInvalidNode});

      const auto packed =
          core::pack_tasks_ordered(topo, population, variant.order);
      std::uint64_t migrations = 0;
      for (const core::PackedTask& p : packed) {
        const auto it = previous.find(p.id);
        if (it != previous.end() && it->second != p.placement.node) {
          ++migrations;
        }
        previous[p.id] = p.placement.node;
      }
      moved.add(static_cast<double>(migrations));
      moved_samples.push_back(static_cast<double>(migrations));
    }
    std::sort(moved_samples.begin(), moved_samples.end());
    churn_table.add(variant.label, steps, moved.mean(),
                    util::quantile_sorted(moved_samples, 0.95),
                    moved.mean() / static_cast<double>(population.size()));
  }
  std::cout << '\n';
  bench::emit(churn_table,
              "Part 2: physical moves per repack on a churning population",
              cli);

  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
