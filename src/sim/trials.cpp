#include "sim/trials.hpp"

#include <algorithm>
#include <vector>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace partree::sim {

std::vector<SimResult> run_trial_results(tree::Topology topo,
                                         const core::TaskSequence& sequence,
                                         std::string_view spec,
                                         const TrialOptions& options) {
  PARTREE_ASSERT(options.trials >= 1, "need at least one trial");

  std::vector<SimResult> results(options.trials);
  parallel_for(
      options.trials,
      [&](std::size_t i) {
        auto allocator =
            core::make_allocator(spec, topo, options.seed + i);
        EngineOptions engine_options;
        engine_options.record_series = true;
        Engine engine(topo, engine_options);
        results[i] = engine.run(sequence, *allocator);
      },
      options.n_threads);
  return results;
}

TrialAggregate run_trials(tree::Topology topo,
                          const core::TaskSequence& sequence,
                          std::string_view spec,
                          const TrialOptions& options) {
  PARTREE_ASSERT(options.trials >= 1, "need at least one trial");

  // Streaming aggregation: the engine records one load sample per event, so
  // the series horizon is known before any trial runs and each trial's
  // shape is validated once, right after its run. Trials fold into
  // per-worker pointwise partial sums (integers, so the fold is exact and
  // order-independent: any n_threads yields identical aggregates), keeping
  // memory at O(horizon) per worker instead of O(trials * horizon).
  const std::size_t horizon = sequence.size();
  const std::size_t n_workers =
      resolve_thread_count(options.trials, options.n_threads);

  std::vector<std::vector<std::uint64_t>> partial_sums(
      n_workers, std::vector<std::uint64_t>(horizon, 0));
  std::vector<std::uint64_t> trial_max(options.trials, 0);
  std::string allocator_name;
  std::uint64_t optimal_load = 0;

  parallel_for_workers(
      options.trials,
      [&](std::size_t w, std::size_t i) {
        auto allocator =
            core::make_allocator(spec, topo, options.seed + i);
        EngineOptions engine_options;
        engine_options.record_series = true;
        Engine engine(topo, engine_options);
        const SimResult r = engine.run(sequence, *allocator);
        PARTREE_ASSERT(
            r.load_series.size() == horizon,
            "trial recorded a load series that does not cover the sequence "
            "(expected one sample per event; was record_series disabled?)");
        std::vector<std::uint64_t>& sums = partial_sums[w];
        for (std::size_t t = 0; t < horizon; ++t) {
          sums[t] += r.load_series[t];
        }
        trial_max[i] = r.max_load;
        if (i == 0) {
          allocator_name = r.allocator;
          optimal_load = r.optimal_load;
        }
      },
      options.n_threads);

  TrialAggregate agg;
  agg.allocator = allocator_name;
  agg.n_pes = topo.n_leaves();
  agg.trials = options.trials;
  agg.optimal_load = optimal_load;

  // E[max_tau L] and the integer extremes, in trial order (so the Welford
  // accumulation is independent of the worker schedule).
  util::RunningStats max_stats;
  std::uint64_t min_max = UINT64_MAX;
  std::uint64_t max_max = 0;
  for (const std::uint64_t m : trial_max) {
    max_stats.add(static_cast<double>(m));
    min_max = std::min(min_max, m);
    max_max = std::max(max_max, m);
  }
  agg.expected_max_load = max_stats.mean();
  agg.stddev_max_load = max_stats.stddev();
  agg.min_max_load = min_max;
  agg.max_max_load = max_max;

  // max_tau E[L(tau)]: fold the per-worker partial sums pointwise, then
  // take the maximum over time of the mean.
  std::vector<std::uint64_t>& total = partial_sums.front();
  for (std::size_t w = 1; w < n_workers; ++w) {
    for (std::size_t t = 0; t < horizon; ++t) {
      total[t] += partial_sums[w][t];
    }
  }
  std::uint64_t best_sum = 0;
  for (const std::uint64_t sum : total) best_sum = std::max(best_sum, sum);
  agg.max_expected_load =
      static_cast<double>(best_sum) / static_cast<double>(options.trials);
  return agg;
}

}  // namespace partree::sim
