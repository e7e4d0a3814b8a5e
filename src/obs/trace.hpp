// Structured tracing: per-thread event rings and sinks.
//
// Instrumented code records fixed-size TraceEvents into a per-thread ring
// buffer -- no locks, no allocation past first use -- via three typed emit
// paths, each a no-op unless a sink is armed:
//
//   * timed spans      (obs/timing.hpp's ScopedTimer, one per timed scope,
//                       named by its DurationMetric)
//   * engine instants  (arrival / departure / realloc round / migration
//                       batch / fault / digest / serve batch)
//   * counter samples  (periodic max load / L* / active size / active tasks
//                       snapshots from the engine)
//
// Tracing is armed by installing a TraceSink (set_trace_sink). While a
// sink is armed, rings flush into it whenever they fill and at explicit
// drain points (drain_trace; the engine drains after every traced run,
// and a thread's ring flushes itself on thread exit). With no sink armed
// an emit costs one relaxed load, and a thread that never emits while
// traced never allocates a ring.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace partree::obs {

/// Engine instants: point events recorded once per engine action.
enum class Instant : std::uint8_t {
  /// One arrival fully handled (placement + any reallocation applied);
  /// payload = task id.
  kArrival = 0,
  /// One departure fully handled; payload = task id.
  kDeparture,
  /// An allocator elected to reallocate; payload = migration list size.
  kReallocRound,
  /// One MachineState::migrate call; payload = the plan's length, which
  /// lists only tasks that move.
  kMigrationBatch,
  /// One injected fault applied by the detsim harness (sim/faults.hpp);
  /// payload = the step (event index) the fault fired at.
  kFaultInjected,
  /// One per-reallocation-epoch MachineState digest; payload = the digest.
  kStateDigest,
  /// One partition-service epoch batch applied (serve/service.hpp);
  /// payload = requests in the batch.
  kServeBatch,
  kCount,
};

inline constexpr std::size_t kNumInstants =
    static_cast<std::size_t>(Instant::kCount);

/// Stable snake_case name used in trace exports.
[[nodiscard]] std::string_view instant_name(Instant i) noexcept;

enum class TraceEventKind : std::uint8_t {
  /// One completed timed span: a = start_ns, b = end_ns,
  /// id = DurationMetric.
  kSpan = 0,
  /// One engine instant: a = payload, id = Instant.
  kInstant,
  /// One counter sample: a = max_load, b = l_star, c = active_size,
  /// d = active_tasks.
  kCounters,
};

/// Fixed-size structured event; the ring stores these by value.
struct TraceEvent {
  std::uint64_t seq = 0;    ///< per-thread sequence number (ring position)
  std::uint64_t ts_ns = 0;  ///< monotonic ns
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t d = 0;
  TraceEventKind kind = TraceEventKind::kInstant;
  std::uint8_t id = 0;  ///< DurationMetric for spans, Instant for instants
};

/// Ring capacity per thread (power of two). An armed ring flushes before
/// wrapping, so nothing is dropped in practice.
inline constexpr std::size_t kTraceRingCapacity = std::size_t{1} << 12;

/// One thread's drained events, in sequence order.
struct ThreadTrace {
  std::uint64_t tid = 0;  ///< small id assigned at first event, process-wide
  std::vector<TraceEvent> events;
  /// Events overwritten before they could be drained (sink armed while the
  /// ring already held more than a capacity's worth of undrained events).
  std::uint64_t dropped = 0;
};

/// Consumer of drained trace chunks. `consume` is called under the trace
/// registry lock (flush points are serialized); implementations must not
/// call back into the trace API and should be cheap or buffer internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const ThreadTrace& chunk) = 0;
};

/// Counting sink for tests and overhead benches: tallies events by kind,
/// discards payloads.
class CountingTraceSink final : public TraceSink {
 public:
  void consume(const ThreadTrace& chunk) override;

  [[nodiscard]] std::uint64_t spans(DurationMetric m) const noexcept {
    return spans_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::uint64_t instants(Instant i) const noexcept {
    return instants_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint64_t counter_samples() const noexcept {
    return counter_samples_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::array<std::uint64_t, kNumDurationMetrics> spans_{};
  std::array<std::uint64_t, kNumInstants> instants_{};
  std::uint64_t counter_samples_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Arms (non-null) or disarms (null) tracing. Arming skips whatever the
/// rings currently hold, so the sink sees only events recorded from this
/// point on. Quiescent points only: at most one sink at a time, and no
/// other thread may be emitting during the switch.
void set_trace_sink(TraceSink* sink);

namespace detail {
/// Fast-path mirror of "a sink is armed", written only by set_trace_sink.
/// In the header so every timed scope's check inlines.
inline std::atomic<bool> g_tracing{false};
}  // namespace detail

/// True while a sink is armed. One relaxed atomic load.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Flushes every live ring into the armed sink. Quiescent points only.
/// No-op without a sink.
void drain_trace();

/// Records an engine instant. No-op unless tracing is enabled.
void emit_instant(Instant i, std::uint64_t payload = 0) noexcept;

/// Records a counter sample. No-op unless tracing is enabled.
void emit_counters(std::uint64_t max_load, std::uint64_t l_star,
                   std::uint64_t active_size,
                   std::uint64_t active_tasks) noexcept;

namespace detail {
/// Span feed from obs/timing.hpp's ScopedTimer.
void emit_span(DurationMetric m, std::uint64_t start_ns,
               std::uint64_t end_ns) noexcept;
}  // namespace detail

}  // namespace partree::obs
