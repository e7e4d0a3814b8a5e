// The monotonic clock that the engine's wall_seconds and the command-line
// tools read. Nothing in the library times itself beyond that: the layer
// timings are perfbench's, measured from outside the library.
#pragma once

#include <cstdint>

namespace partree::util {

/// Monotonic nanoseconds since an arbitrary epoch.
[[nodiscard]] std::uint64_t monotonic_ns() noexcept;

}  // namespace partree::util
