#include "sim/trials.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

core::TaskSequence test_sequence(const tree::Topology& topo,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  workload::ClosedLoopParams params;
  params.n_events = 400;
  params.utilization = 0.8;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  return workload::closed_loop(topo, params, rng);
}

TEST(TrialsTest, DeterministicAllocatorHasZeroVariance) {
  const tree::Topology topo(32);
  const auto seq = test_sequence(topo, 1);
  const auto agg = run_trials(topo, seq, "greedy",
                              TrialOptions{.trials = 4, .seed = 1});
  EXPECT_EQ(agg.trials, 4u);
  EXPECT_DOUBLE_EQ(agg.stddev_max_load, 0.0);
  EXPECT_EQ(agg.min_max_load, agg.max_max_load);
  // For a deterministic algorithm both metrics coincide.
  EXPECT_DOUBLE_EQ(agg.expected_max_load, agg.max_expected_load);
}

TEST(TrialsTest, PaperMetricNeverExceedsPessimistic) {
  // max_tau E[L] <= E[max_tau L] always (Jensen/max-exchange).
  const tree::Topology topo(64);
  const auto seq = test_sequence(topo, 2);
  const auto agg = run_trials(topo, seq, "random",
                              TrialOptions{.trials = 12, .seed = 7});
  EXPECT_LE(agg.max_expected_load, agg.expected_max_load + 1e-9);
  EXPECT_GE(agg.max_expected_load,
            static_cast<double>(agg.optimal_load) - 1e-9);
}

TEST(TrialsTest, SeedsChangeRandomizedOutcomes) {
  const tree::Topology topo(64);
  const auto seq = test_sequence(topo, 3);
  const auto agg = run_trials(topo, seq, "random",
                              TrialOptions{.trials = 12, .seed = 1});
  EXPECT_GT(agg.stddev_max_load + agg.expected_max_load, 0.0);
  EXPECT_LE(agg.min_max_load, agg.max_max_load);
}

TEST(TrialsTest, HandComputedTwoTrialFixture) {
  // Figure 1's sigma* under greedy: both trials are identical with load
  // series 1 1 1 1 1 1 2, so every aggregate is hand-computable:
  //   E[max_tau L]   = (2 + 2) / 2          = 2
  //   max_tau E[L]   = max(1,...,1, (2+2)/2) = 2
  const tree::Topology topo(4);
  const core::TaskSequence seq = core::figure1_sequence();
  const auto agg = run_trials(topo, seq, "greedy",
                              TrialOptions{.trials = 2, .seed = 1});
  EXPECT_EQ(agg.trials, 2u);
  EXPECT_EQ(agg.optimal_load, 1u);
  EXPECT_DOUBLE_EQ(agg.expected_max_load, 2.0);
  EXPECT_DOUBLE_EQ(agg.max_expected_load, 2.0);
  EXPECT_DOUBLE_EQ(agg.stddev_max_load, 0.0);
  EXPECT_EQ(agg.min_max_load, 2u);
  EXPECT_EQ(agg.max_max_load, 2u);
  EXPECT_DOUBLE_EQ(agg.expected_ratio(), 2.0);
  EXPECT_DOUBLE_EQ(agg.paper_ratio(), 2.0);
}

TEST(TrialsTest, AggregatesMatchReferenceOnTwoTrialFixture) {
  // The streaming aggregation must agree exactly with a reference computed
  // from two direct runs seeded 11 and 12 (trial i uses seed + i). The
  // sums are integers, so equality is exact, not approximate.
  const tree::Topology topo(8);
  const auto seq = test_sequence(topo, 9);
  std::vector<SimResult> results;
  for (const std::uint64_t seed : {11u, 12u}) {
    EngineOptions engine_options;
    engine_options.record_series = true;
    Engine engine(topo, engine_options);
    results.push_back(
        engine.run(seq, *core::make_allocator("random", topo, seed)));
    ASSERT_EQ(results.back().load_series.size(), seq.size());
  }

  const double mean_max =
      (static_cast<double>(results[0].max_load) +
       static_cast<double>(results[1].max_load)) / 2.0;
  double max_mean = 0.0;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const double mean = (static_cast<double>(results[0].load_series[t]) +
                         static_cast<double>(results[1].load_series[t])) / 2.0;
    max_mean = std::max(max_mean, mean);
  }

  const auto agg = run_trials(topo, seq, "random",
                              TrialOptions{.trials = 2, .seed = 11});
  EXPECT_DOUBLE_EQ(agg.expected_max_load, mean_max);
  EXPECT_DOUBLE_EQ(agg.max_expected_load, max_mean);
  EXPECT_EQ(agg.min_max_load,
            std::min(results[0].max_load, results[1].max_load));
  EXPECT_EQ(agg.max_max_load,
            std::max(results[0].max_load, results[1].max_load));
}

TEST(TrialsTest, CarriesMetadata) {
  const tree::Topology topo(16);
  const auto seq = test_sequence(topo, 6);
  const auto agg = run_trials(topo, seq, "dchoice:k=2",
                              TrialOptions{.trials = 3, .seed = 2});
  EXPECT_EQ(agg.allocator, "dchoice(k=2)");
  EXPECT_EQ(agg.n_pes, 16u);
  EXPECT_EQ(agg.optimal_load, seq.optimal_load(16));
}

}  // namespace
}  // namespace partree::sim
