#include "obs/timing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::obs {
namespace {

std::uint64_t histogram_count(DurationMetric m) {
  return snapshot_metrics().duration(m).count;
}

// Keeps every drained event, in ring order.
class CapturingSink final : public TraceSink {
 public:
  void consume(const ThreadTrace& chunk) override {
    events.insert(events.end(), chunk.events.begin(), chunk.events.end());
    dropped += chunk.dropped;
  }

  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

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

// A scope reads the clock only while something is armed, and feeds each
// armed consumer: the ring while a sink is armed, the histogram while
// duration metrics are on. Disarmed or with durations only, it leaves the
// ring alone, so the traced spans on either side of it are consecutive.
TEST_F(TimingTest, ScopedTimerRecordsOnlyWhenEnabled) {
  CapturingSink sink;
  set_trace_sink(&sink);
  {
    const ScopedTimer t(DurationMetric::kPlaceNs);
  }
  set_trace_sink(nullptr);  // disarming drains the calling thread's ring

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

  set_trace_sink(&sink);
  {
    const ScopedTimer t(DurationMetric::kReallocateNs);
  }
  set_trace_sink(nullptr);
  {
    const ScopedTimer t(DurationMetric::kServeApplyNs);
  }

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].kind, TraceEventKind::kSpan);
  EXPECT_EQ(sink.events[0].id,
            static_cast<std::uint8_t>(DurationMetric::kPlaceNs));
  EXPECT_EQ(sink.events[1].id,
            static_cast<std::uint8_t>(DurationMetric::kReallocateNs));
  EXPECT_EQ(sink.events[1].seq, sink.events[0].seq + 1);
  // Tracing alone records no histogram.
  EXPECT_EQ(histogram_count(DurationMetric::kPlaceNs), 0u);
  EXPECT_EQ(histogram_count(DurationMetric::kReallocateNs), 0u);
}

TEST_F(TimingTest, ArmedSinkSeesEverySpan) {
  CapturingSink sink;
  set_trace_sink(&sink);
  set_duration_metrics_enabled(true);
  {
    const ScopedTimer t(DurationMetric::kBookkeepingNs);
  }
  {
    const ScopedTimer t(DurationMetric::kDepartureNs);
  }
  set_duration_metrics_enabled(false);
  set_trace_sink(nullptr);  // disarming drains the calling thread's ring

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.dropped, 0u);
  EXPECT_EQ(sink.events[0].id,
            static_cast<std::uint8_t>(DurationMetric::kBookkeepingNs));
  const TraceEvent& span = sink.events[1];
  EXPECT_EQ(span.kind, TraceEventKind::kSpan);
  EXPECT_EQ(span.id, static_cast<std::uint8_t>(DurationMetric::kDepartureNs));
  // Both armed: the span and the sample come from the same clock reads.
  const MetricHistogram h = snapshot_metrics().duration(
      DurationMetric::kDepartureNs);
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, span.b - span.a);
}

// Spans carry their metric's name, from the one table in metrics.cpp, in
// Chrome exports.
TEST_F(TimingTest, SpanNamesAreMetricNames) {
  EXPECT_EQ(duration_metric_name(DurationMetric::kPlaceNs), "place_ns");
  EXPECT_EQ(duration_metric_name(DurationMetric::kServeApplyNs),
            "serve_apply_ns");

  ChromeTraceSink sink;
  set_trace_sink(&sink);
  {
    const ScopedTimer t(DurationMetric::kServeApplyNs);
  }
  set_trace_sink(nullptr);
  const util::json::Value doc = util::json::parse(sink.document());
  std::vector<std::string> names;
  for (const util::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "X") {
      names.push_back(ev.at("name").as_string());
    }
  }
  EXPECT_EQ(names, std::vector<std::string>{"serve_apply_ns"});
}

// With tracing and duration metrics both armed, every timed scope's span
// count equals its histogram count across the engine and the service, and
// the direct records -- which time no scope of their own -- emit no span.
TEST_F(TimingTest, EverySpanReconcilesWithItsHistogram) {
  const tree::Topology topo(64);
  util::Rng rng(12345);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const core::TaskSequence seq = workload::closed_loop(topo, params, rng);

  CountingTraceSink sink;
  set_trace_sink(&sink);
  set_duration_metrics_enabled(true);
  sim::Engine engine(topo);
  const sim::SimResult run =
      engine.run(seq, *core::make_allocator("dmix:d=1", topo));
  {
    serve::PartitionService service(topo,
                                    core::make_allocator("dmix:d=1", topo));
    std::vector<serve::ArrivalTicket> tickets;
    for (int i = 0; i < 16; ++i) tickets.push_back(service.submit_arrival(2));
    for (serve::ArrivalTicket& t : tickets) {
      (void)t.placed.get();
      (void)service.submit_departure(t.id).get();
    }
    service.stop();  // joins the apply thread, which flushes its ring
  }
  set_duration_metrics_enabled(false);
  set_trace_sink(nullptr);  // flushes this thread's ring (the engine's)
  ASSERT_GT(run.reallocation_count, 0u);
  EXPECT_EQ(sink.dropped(), 0u);

  const MetricsSnapshot snap = snapshot_metrics();
  for (const DurationMetric m :
       {DurationMetric::kArrivalHandleNs, DurationMetric::kDepartureHandleNs,
        DurationMetric::kPlaceNs, DurationMetric::kReallocateNs,
        DurationMetric::kDepartureNs, DurationMetric::kBookkeepingNs,
        DurationMetric::kServeApplyNs}) {
    EXPECT_GT(sink.spans(m), 0u) << duration_metric_name(m);
    EXPECT_EQ(sink.spans(m), snap.duration(m).count)
        << duration_metric_name(m);
  }
  for (const DurationMetric m :
       {DurationMetric::kReallocPlanNs, DurationMetric::kReallocRoundNs,
        DurationMetric::kServeQueueWaitNs}) {
    EXPECT_EQ(sink.spans(m), 0u) << duration_metric_name(m);
  }
}

}  // namespace
}  // namespace partree::obs
