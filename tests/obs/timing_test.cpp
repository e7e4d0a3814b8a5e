#include "obs/timing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"

namespace partree::obs {
namespace {

// A ScopedTimer is enabled exactly while a trace sink is armed: disarmed it
// leaves nothing in the thread's ring, armed it emits one span per scope.
TEST(TimingTest, ScopedTimerRecordsOnlyWhenEnabled) {
  emit_instant(Instant::kFaultInjected, 7);  // marks the ring's tail
  {
    const ScopedTimer t(Phase::kPlace);
  }
  const std::vector<TraceEvent> tail = thread_flight_record();
  ASSERT_FALSE(tail.empty());
  EXPECT_EQ(tail.back().kind, TraceEventKind::kInstant);
  EXPECT_EQ(tail.back().a, 7u);

  ChromeTraceSink sink;
  set_trace_sink(&sink);
  {
    const ScopedTimer t(Phase::kPlace);
  }
  {
    const ScopedTimer t(Phase::kReallocate);
  }
  set_trace_sink(nullptr);  // disarming drains the calling thread's ring
  {
    const ScopedTimer t(Phase::kParallelRegion);
  }

  EXPECT_EQ(sink.span_count(Phase::kPlace), 1u);
  EXPECT_EQ(sink.span_count(Phase::kReallocate), 1u);
  EXPECT_EQ(sink.span_count(Phase::kDeparture), 0u);
  EXPECT_EQ(sink.span_count(Phase::kParallelRegion), 0u);
  EXPECT_EQ(thread_flight_record().back().id,
            static_cast<std::uint8_t>(Phase::kReallocate));
}

TEST(TimingTest, ArmedSinkSeesEverySpan) {
  CountingTraceSink sink;
  set_trace_sink(&sink);
  {
    const ScopedTimer t(Phase::kBookkeeping);
  }
  {
    const ScopedTimer t(Phase::kDeparture);
  }
  set_trace_sink(nullptr);  // disarming drains the calling thread's ring

  EXPECT_EQ(sink.spans(Phase::kBookkeeping), 1u);
  EXPECT_EQ(sink.spans(Phase::kDeparture), 1u);
  EXPECT_EQ(sink.spans(Phase::kPlace), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(thread_flight_record().back().kind, TraceEventKind::kSpan);
  EXPECT_EQ(thread_flight_record().back().id,
            static_cast<std::uint8_t>(Phase::kDeparture));
}

TEST(TimingTest, PhaseNamesAreStable) {
  EXPECT_EQ(phase_name(Phase::kPlace), "place");
  EXPECT_EQ(phase_name(Phase::kParallelRegion), "parallel_region");
}

}  // namespace
}  // namespace partree::obs
