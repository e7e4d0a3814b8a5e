// Task-size distributions (always powers of two, <= N).
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace partree::workload {

/// A sampleable distribution over power-of-two task sizes. Value type so
/// workload parameter structs stay copyable.
struct SizeSpec {
  enum class Kind : std::uint8_t {
    kFixed,       ///< always `fixed`
    kUniformLog,  ///< log2(size) uniform on [min_log, max_log]
    kGeometric,   ///< start at 1, double with prob `geo_p` (capped)
    kZipfLog,     ///< P(log2 = k) proportional to 1/(k+1)^zipf_theta
  };

  Kind kind = Kind::kFixed;
  std::uint64_t fixed = 1;
  std::uint32_t min_log = 0;
  std::uint32_t max_log = 0;
  double geo_p = 0.5;
  double zipf_theta = 1.0;

  [[nodiscard]] static SizeSpec fixed_size(std::uint64_t size);
  [[nodiscard]] static SizeSpec uniform_log(std::uint32_t min_log,
                                            std::uint32_t max_log);
  [[nodiscard]] static SizeSpec geometric(double p, std::uint32_t max_log);
  [[nodiscard]] static SizeSpec zipf_log(double theta, std::uint32_t max_log);

  /// Draws a size; the result is clamped to [1, n_pes].
  [[nodiscard]] std::uint64_t sample(util::Rng& rng,
                                     std::uint64_t n_pes) const;

  [[nodiscard]] std::string describe() const;
};

/// log_A(n_pes): the height of an arity-A machine with n_pes PEs. A must be
/// a power of two >= 2 and n_pes a power of A; such a machine is the
/// n_pes-leaf binary tree with task sizes restricted to powers of A.
[[nodiscard]] std::uint32_t log_arity(std::uint64_t n_pes,
                                      std::uint64_t arity);

}  // namespace partree::workload
