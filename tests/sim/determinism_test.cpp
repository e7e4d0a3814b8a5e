// Seeded determinism: a trial batch must produce identical results and
// identical merged run metrics no matter how many worker threads execute
// it. Trial i always uses seed base+i and lands in result slot i, and
// metric shards merge by commutative addition, so n_threads is invisible
// everywhere except wall time.
#include "sim/trials.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

core::TaskSequence make_sequence(const tree::Topology& topo) {
  util::Rng rng(17);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.utilization = 0.7;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  return workload::closed_loop(topo, params, rng);
}

// Everything except wall_seconds, which is the one legitimately
// nondeterministic field.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.n_pes, b.n_pes);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.optimal_load, b.optimal_load);
  EXPECT_EQ(a.reallocation_count, b.reallocation_count);
  EXPECT_EQ(a.migration_count, b.migration_count);
  EXPECT_EQ(a.migrated_size, b.migrated_size);
  EXPECT_EQ(a.load_series, b.load_series);
  EXPECT_EQ(a.task_slowdowns, b.task_slowdowns);
  EXPECT_EQ(a.worst_slowdown, b.worst_slowdown);
  EXPECT_EQ(a.mean_slowdown, b.mean_slowdown);
}

// The thread-count-invariant slice of one batch's metrics: the round and
// min_load_node histograms its trials recorded, and the items its pool
// region dispatched. Held by value -- a snapshot is a temporary.
struct BatchMetrics {
  obs::MetricHistogram applied;
  obs::MetricHistogram visits;
  std::uint64_t region_items = 0;
};

BatchMetrics metrics_of(const std::function<void()>& batch) {
  obs::reset_metrics();
  batch();
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  return {snap.value(obs::ValueMetric::kMigrationsApplied),
          snap.value(obs::ValueMetric::kMinLoadNodeVisits),
          snap.value(obs::ValueMetric::kPoolRegionItems).sum};
}

void expect_same_metrics(const BatchMetrics& a, const BatchMetrics& b) {
  EXPECT_EQ(a.applied.buckets, b.applied.buckets);
  EXPECT_EQ(a.applied.sum, b.applied.sum);
  EXPECT_EQ(a.visits.buckets, b.visits.buckets);
  EXPECT_EQ(a.visits.sum, b.visits.sum);
  EXPECT_EQ(a.region_items, b.region_items);
}

class TrialsDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TrialsDeterminismTest, SerialAndParallelRunsAreByteIdentical) {
  const tree::Topology topo(64);
  const auto seq = make_sequence(topo);

  TrialOptions serial;
  serial.trials = 8;
  serial.seed = 5;
  serial.n_threads = 1;
  TrialOptions parallel = serial;
  parallel.n_threads = 4;

  std::vector<SimResult> serial_results;
  const BatchMetrics serial_metrics = metrics_of([&] {
    serial_results = run_trial_results(topo, seq, GetParam(), serial);
  });
  std::vector<SimResult> parallel_results;
  const BatchMetrics parallel_metrics = metrics_of([&] {
    parallel_results = run_trial_results(topo, seq, GetParam(), parallel);
  });

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    expect_identical(serial_results[i], parallel_results[i]);
  }
  EXPECT_GT(serial_results.front().events, 0u);
  expect_same_metrics(serial_metrics, parallel_metrics);
  EXPECT_EQ(serial_metrics.region_items, 8u);
  EXPECT_EQ(parallel_metrics.region_items, 8u);
}

TEST_P(TrialsDeterminismTest, AggregatesMatchAcrossThreadCounts) {
  const tree::Topology topo(32);
  const auto seq = make_sequence(topo);

  TrialOptions serial;
  serial.trials = 6;
  serial.seed = 23;
  serial.n_threads = 1;
  TrialOptions parallel = serial;
  parallel.n_threads = 4;

  TrialAggregate a;
  const BatchMetrics a_metrics =
      metrics_of([&] { a = run_trials(topo, seq, GetParam(), serial); });
  TrialAggregate b;
  const BatchMetrics b_metrics =
      metrics_of([&] { b = run_trials(topo, seq, GetParam(), parallel); });
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.expected_max_load, b.expected_max_load);
  EXPECT_EQ(a.stddev_max_load, b.stddev_max_load);
  EXPECT_EQ(a.min_max_load, b.min_max_load);
  EXPECT_EQ(a.max_max_load, b.max_max_load);
  EXPECT_EQ(a.max_expected_load, b.max_expected_load);
  expect_same_metrics(a_metrics, b_metrics);
  EXPECT_EQ(a_metrics.region_items, serial.trials);
}

// Both a randomized allocator (seeds matter) and a deterministic one.
INSTANTIATE_TEST_SUITE_P(Allocators, TrialsDeterminismTest,
                         ::testing::Values("randmix:d=2", "random", "greedy"));

// All three thread-count settings run back to back on the SAME process-wide
// worker pool: serial inline, an explicit 2-worker pool region, and the
// host default (which may itself be serial on single-core CI). Persistent
// workers must not leak state between regions that would perturb results.
TEST(TrialsDeterminismTest, SamePoolInstanceAcrossThreadCounts) {
  const tree::Topology topo(32);
  const auto seq = make_sequence(topo);

  TrialOptions base;
  base.trials = 6;
  base.seed = 41;

  std::vector<TrialAggregate> per_setting;
  std::vector<BatchMetrics> per_setting_metrics;
  for (const std::size_t n_threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{0}}) {
    TrialOptions opt = base;
    opt.n_threads = n_threads;
    per_setting_metrics.push_back(metrics_of([&] {
      per_setting.push_back(run_trials(topo, seq, "randmix:d=2", opt));
    }));
  }
  EXPECT_EQ(per_setting_metrics[0].region_items, base.trials);
  for (std::size_t i = 1; i < per_setting.size(); ++i) {
    EXPECT_EQ(per_setting[0].expected_max_load,
              per_setting[i].expected_max_load);
    EXPECT_EQ(per_setting[0].stddev_max_load, per_setting[i].stddev_max_load);
    EXPECT_EQ(per_setting[0].min_max_load, per_setting[i].min_max_load);
    EXPECT_EQ(per_setting[0].max_max_load, per_setting[i].max_max_load);
    expect_same_metrics(per_setting_metrics[0], per_setting_metrics[i]);
  }
}

}  // namespace
}  // namespace partree::sim
