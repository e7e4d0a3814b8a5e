#include "obs/timing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::obs {
namespace {

std::uint64_t histogram_count(DurationMetric m) {
  return snapshot_metrics().duration(m).count;
}

// Each test starts from an empty registry with duration metrics off and
// restores that state, so recordings elsewhere in the process never leak
// in.
class TimingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_duration_metrics_enabled(false);
    reset_metrics();
  }
  void TearDown() override {
    set_duration_metrics_enabled(false);
    reset_metrics();
  }
};

// A scope reads the clock and records only while duration metrics are on.
TEST_F(TimingTest, ScopedTimerRecordsOnlyWhenEnabled) {
  {
    const ScopedTimer t(DurationMetric::kDepartureNs);
  }
  EXPECT_EQ(histogram_count(DurationMetric::kDepartureNs), 0u);

  set_duration_metrics_enabled(true);
  {
    const ScopedTimer t(DurationMetric::kDepartureNs);
  }
  set_duration_metrics_enabled(false);
  EXPECT_EQ(histogram_count(DurationMetric::kDepartureNs), 1u);

  {
    const ScopedTimer t(DurationMetric::kDepartureNs);
  }
  EXPECT_EQ(histogram_count(DurationMetric::kDepartureNs), 1u);
}

// With duration metrics armed, every duration histogram counts exactly
// the work it names: the engine's scopes against its SimResult, the
// service's against its ServiceStats.
TEST_F(TimingTest, EveryTimedScopeReconcilesWithItsRun) {
  const tree::Topology topo(64);
  util::Rng rng(12345);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  set_duration_metrics_enabled(true);
  sim::Engine engine(topo);
  const sim::SimResult run =
      engine.run(seq, *core::make_allocator("dmix:d=1", topo));
  ASSERT_GT(run.reallocation_count, 0u);
  MetricsSnapshot snap = snapshot_metrics();
  const auto count = [&](DurationMetric m) { return snap.duration(m).count; };
  EXPECT_EQ(count(DurationMetric::kArrivalHandleNs), run.arrivals);
  EXPECT_EQ(count(DurationMetric::kPlaceNs), run.arrivals);
  EXPECT_EQ(count(DurationMetric::kReallocateNs), run.arrivals);
  EXPECT_EQ(count(DurationMetric::kDepartureHandleNs), run.departures);
  EXPECT_EQ(count(DurationMetric::kDepartureNs), run.departures);
  EXPECT_EQ(count(DurationMetric::kBookkeepingNs), run.events);
  EXPECT_EQ(count(DurationMetric::kReallocPlanNs), run.reallocation_count);
  EXPECT_EQ(count(DurationMetric::kReallocRoundNs), run.reallocation_count);
  EXPECT_EQ(count(DurationMetric::kServeApplyNs), 0u);
  EXPECT_EQ(count(DurationMetric::kServeQueueWaitNs), 0u);

  reset_metrics();
  serve::ServiceStats stats;
  {
    serve::PartitionService service(topo,
                                    core::make_allocator("dmix:d=1", topo));
    std::vector<serve::ArrivalTicket> tickets;
    for (int i = 0; i < 16; ++i) tickets.push_back(service.submit_arrival(2));
    for (serve::ArrivalTicket& t : tickets) {
      (void)t.placed.get();
      (void)service.submit_departure(t.id).get();
    }
    // Departs an inactive task: a failed request, applied by no step.
    EXPECT_FALSE(service.submit_departure(tickets[0].id).get().ok);
    service.stop();
    stats = service.stats();
  }
  set_duration_metrics_enabled(false);
  ASSERT_EQ(stats.failed, 1u);
  snap = snapshot_metrics();
  EXPECT_EQ(count(DurationMetric::kServeApplyNs),
            stats.applied + stats.failed);
  EXPECT_EQ(count(DurationMetric::kServeQueueWaitNs),
            stats.applied + stats.failed);
  EXPECT_EQ(count(DurationMetric::kPlaceNs), stats.arrivals);
  EXPECT_EQ(count(DurationMetric::kDepartureNs), stats.departures);
  EXPECT_EQ(count(DurationMetric::kReallocRoundNs), stats.reallocation_count);
  EXPECT_EQ(count(DurationMetric::kArrivalHandleNs), 0u);
  EXPECT_EQ(count(DurationMetric::kBookkeepingNs), 0u);
}

}  // namespace
}  // namespace partree::obs
