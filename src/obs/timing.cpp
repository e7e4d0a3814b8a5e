#include "obs/timing.hpp"

#include <chrono>

namespace partree::obs::detail {

std::uint64_t monotonic_ns() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  // steady_clock never goes backwards; 0 is reserved for "timer disarmed".
  return ns <= 0 ? 1 : static_cast<std::uint64_t>(ns);
}

void close_scope(DurationMetric m, std::uint64_t start_ns) noexcept {
  const std::uint64_t end_ns = monotonic_ns();
  if (duration_metrics_enabled()) record_duration(m, end_ns - start_ns);
}

}  // namespace partree::obs::detail
