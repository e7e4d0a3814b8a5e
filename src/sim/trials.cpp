#include "sim/trials.hpp"

#include <algorithm>
#include <vector>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace partree::sim {

TrialAggregate run_trials(tree::Topology topo,
                          const core::TaskSequence& sequence,
                          std::string_view spec,
                          const TrialOptions& options) {
  PARTREE_ASSERT(options.trials >= 1, "need at least one trial");

  // Streaming aggregation: the engine records one load sample per event, so
  // the series horizon is known before any trial runs and each trial's
  // shape is validated once, right after its run. Trials fold into one
  // pointwise integer sum (exact), keeping memory at O(horizon) instead
  // of O(trials * horizon).
  const std::size_t horizon = sequence.size();
  std::vector<std::uint64_t> sums(horizon, 0);

  TrialAggregate agg;
  agg.n_pes = topo.n_leaves();
  agg.trials = options.trials;

  // E[max_tau L] and the integer extremes, in trial order.
  util::RunningStats max_stats;
  std::uint64_t min_max = UINT64_MAX;
  std::uint64_t max_max = 0;
  for (std::size_t i = 0; i < options.trials; ++i) {
    auto allocator = core::make_allocator(spec, topo, options.seed + i);
    EngineOptions engine_options;
    engine_options.record_series = true;
    Engine engine(topo, engine_options);
    const SimResult r = engine.run(sequence, *allocator);
    PARTREE_ASSERT(
        r.load_series.size() == horizon,
        "trial recorded a load series that does not cover the sequence "
        "(expected one sample per event; was record_series disabled?)");
    for (std::size_t t = 0; t < horizon; ++t) sums[t] += r.load_series[t];
    max_stats.add(static_cast<double>(r.max_load));
    min_max = std::min(min_max, r.max_load);
    max_max = std::max(max_max, r.max_load);
    if (i == 0) {
      agg.allocator = r.allocator;
      agg.optimal_load = r.optimal_load;
    }
  }
  agg.expected_max_load = max_stats.mean();
  agg.stddev_max_load = max_stats.stddev();
  agg.min_max_load = min_max;
  agg.max_max_load = max_max;

  // max_tau E[L(tau)]: the maximum over time of the pointwise mean.
  std::uint64_t best_sum = 0;
  for (const std::uint64_t sum : sums) best_sum = std::max(best_sum, sum);
  agg.max_expected_load =
      static_cast<double>(best_sum) / static_cast<double>(options.trials);
  return agg;
}

}  // namespace partree::sim
