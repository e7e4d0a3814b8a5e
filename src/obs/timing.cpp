#include "obs/timing.hpp"

#include <chrono>

namespace partree::obs {

std::string_view phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kPlace: return "place";
    case Phase::kReallocate: return "reallocate";
    case Phase::kDeparture: return "departure";
    case Phase::kBookkeeping: return "bookkeeping";
    case Phase::kParallelRegion: return "parallel_region";
    case Phase::kParallelWorker: return "parallel_worker";
    case Phase::kCount: break;
  }
  return "unknown";
}

namespace detail {

std::uint64_t monotonic_ns() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
  // steady_clock never goes backwards; 0 is reserved for "timer disarmed".
  return ns <= 0 ? 1 : static_cast<std::uint64_t>(ns);
}

}  // namespace detail
}  // namespace partree::obs
