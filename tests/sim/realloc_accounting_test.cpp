// Reallocation accounting: a plan lists only the tasks that move, so a
// round's move count is its plan's length. These tests pin that the
// engine's totals and the metrics registry agree on it -- one
// migrations_applied sample per round, summing to migration_count -- and
// that a repack that moves nothing still records an explicit zero.
#include <gtest/gtest.h>

#include "core/drealloc.hpp"
#include "core/sequence.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::sim {
namespace {

TEST(ReallocAccountingTest, ZeroMoveRepackRecordsZero) {
  // Two size-4 arrivals on N=4 with d=1: the second arrival pushes the
  // arrived volume past dN and triggers a repack, but both tasks already
  // sit exactly where A_R puts them (copy k, root node), so the round
  // moves nothing -- and must still count as a round, with an explicit 0
  // recorded in the migration histogram.
  obs::reset_metrics();
  const tree::Topology topo(4);
  core::TaskSequence seq;
  seq.arrive(4);
  seq.arrive(4);

  Engine engine(topo, EngineOptions{.debug_checks = true});
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);

  EXPECT_EQ(result.reallocation_count, 1u);
  EXPECT_EQ(result.migration_count, 0u);
  EXPECT_EQ(result.migrated_size, 0u);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& applied =
      snap.value(obs::ValueMetric::kMigrationsApplied);
  EXPECT_EQ(applied.count, 1u);
  EXPECT_EQ(applied.sum, 0u);
}

TEST(ReallocAccountingTest, AppliedHistogramMatchesResultUnderChurn) {
  // Across a churny run the metrics registry sees exactly one sample per
  // round, and the samples sum to the engine's move count.
  obs::reset_metrics();
  const tree::Topology topo(64);
  util::Rng rng(47);
  workload::ClosedLoopParams params;
  params.n_events = 1500;
  params.utilization = 0.9;
  params.size = workload::SizeSpec::uniform_log(0, 5);
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  Engine engine(topo);
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);
  ASSERT_GT(result.reallocation_count, 0u);
  ASSERT_GT(result.migration_count, 0u);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& applied =
      snap.value(obs::ValueMetric::kMigrationsApplied);
  EXPECT_EQ(applied.count, result.reallocation_count);
  EXPECT_EQ(applied.sum, result.migration_count);
}

TEST(ReallocAccountingTest, ReallocPlanNsRecordedPerAppliedRound) {
  obs::reset_metrics();
  obs::set_duration_metrics_enabled(true);
  const tree::Topology topo(16);
  util::Rng rng(53);
  workload::ClosedLoopParams params;
  params.n_events = 400;
  params.utilization = 0.85;
  params.size = workload::SizeSpec::uniform_log(0, 4);
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  Engine engine(topo);
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);
  obs::set_duration_metrics_enabled(false);
  ASSERT_GT(result.reallocation_count, 0u);

  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const obs::MetricHistogram& plan =
      snap.duration(obs::DurationMetric::kReallocPlanNs);
  const obs::MetricHistogram& round =
      snap.duration(obs::DurationMetric::kReallocRoundNs);
  EXPECT_EQ(plan.count, result.reallocation_count);
  EXPECT_EQ(round.count, result.reallocation_count);
  // The plan is a prefix of the round bracket, so its time can't exceed
  // the whole round's.
  EXPECT_LE(plan.sum, round.sum);
}

}  // namespace
}  // namespace partree::sim
