// The monotonic clock and the one timed scope.
//
// Every timed stretch of engine or service work is one
// DurationMetric, and ScopedTimer is the only RAII timer. It reads the
// clock only while duration metrics are on, and then records one sample
// into the metric's duration histogram (obs/metrics.hpp).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace partree::obs {

namespace detail {
/// Monotonic nanoseconds; never 0, which callers reserve for "no start".
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;

/// ScopedTimer's exit: reads the clock once more and records the sample
/// while duration metrics are still on.
void close_scope(DurationMetric m, std::uint64_t start_ns) noexcept;
}  // namespace detail

/// RAII timed scope. Disarmed, it costs one relaxed load and never reads
/// the clock; armed, it costs two clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(DurationMetric m) noexcept
      : metric_(m),
        start_ns_(duration_metrics_enabled() ? detail::monotonic_ns() : 0) {}

  ~ScopedTimer() {
    if (start_ns_ != 0) detail::close_scope(metric_, start_ns_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  DurationMetric metric_;
  std::uint64_t start_ns_;
};

}  // namespace partree::obs
