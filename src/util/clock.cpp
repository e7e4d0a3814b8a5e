#include "util/clock.hpp"

#include <chrono>

namespace partree::util {

std::uint64_t monotonic_ns() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace partree::util
