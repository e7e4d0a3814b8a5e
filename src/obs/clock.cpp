#include "obs/clock.hpp"

#include <chrono>

namespace partree::obs {

std::uint64_t monotonic_ns() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace partree::obs
