// Phase names and the monotonic clock.
//
// A Phase names one bracketed stretch of engine or pool work. Phases are
// not accumulated anywhere: while a trace sink is armed, obs/trace.hpp's
// ScopedTimer records each one as a span event, and the duration
// histograms of obs/metrics.hpp carry the distributions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace partree::obs {

enum class Phase : std::size_t {
  /// Allocator placement decision + state application for one arrival.
  kPlace = 0,
  /// Reallocation decision + migration application.
  kReallocate,
  /// Departure handling (allocator notification + state removal).
  kDeparture,
  /// Per-event metric bookkeeping (series, peak histogram, checks).
  kBookkeeping,
  /// One whole sim::parallel_for region, timed on the calling thread.
  kParallelRegion,
  /// One worker's lifetime inside a parallel region, timed on the worker
  /// thread (gives per-thread tracks in timeline exports).
  kParallelWorker,
  kCount,
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Stable snake_case name used in trace exports and crash dumps.
[[nodiscard]] std::string_view phase_name(Phase p) noexcept;

namespace detail {
/// Monotonic nanoseconds; never 0, which callers reserve for "no start".
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;
}  // namespace detail

}  // namespace partree::obs
