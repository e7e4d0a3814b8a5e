// Chrome trace-event export (chrome://tracing and ui.perfetto.dev).
//
// ChromeTraceSink serializes drained TraceEvents incrementally into the
// trace-event JSON format, one compact object per event:
//
//   * timed spans   -> "X" (complete) duration events named by their
//                      DurationMetric, one track per thread ("M"
//                      thread_name metadata per tid)
//   * instants      -> "i" instant events on the emitting thread's track
//   * counter samples -> "C" counter events, one track per series
//                      (max_load, l_star, active_size, active_tasks)
//
// Timestamps are microseconds (the format's unit) from the monotonic
// clock. The sink buffers serialized text, not Values, so multi-hundred-
// thousand-event traces stay ~100 bytes per event; `write_file` wraps the
// buffer as {"displayTimeUnit": "ms", "traceEvents": [...]}.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "obs/trace.hpp"

namespace partree::obs {

class ChromeTraceSink final : public TraceSink {
 public:
  void consume(const ThreadTrace& chunk) override;

  /// Spans serialized so far for one timed scope.
  [[nodiscard]] std::uint64_t span_count(DurationMetric m) const;
  /// Instants serialized so far for one kind.
  [[nodiscard]] std::uint64_t instant_count(Instant i) const;
  /// Counter samples serialized so far (each produces 4 "C" events).
  [[nodiscard]] std::uint64_t counter_samples() const;
  /// Events that were overwritten before draining (should be 0; a traced
  /// ring flushes itself before wrapping).
  [[nodiscard]] std::uint64_t dropped_events() const;

  /// The complete JSON document serialized so far.
  [[nodiscard]] std::string document() const;

  /// Writes `document()` to `path`; false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  void append_event(std::string_view body);

  mutable std::mutex mutex_;
  std::string events_;  ///< comma-joined serialized event objects
  std::set<std::uint64_t> tids_seen_;
  CountingTraceSink tally_;  ///< sees every chunk this sink serializes
};

}  // namespace partree::obs
