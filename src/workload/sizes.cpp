#include "workload/sizes.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace partree::workload {

SizeSpec SizeSpec::fixed_size(std::uint64_t size) {
  PARTREE_ASSERT(util::is_pow2(size), "fixed size must be a power of two");
  SizeSpec spec;
  spec.kind = Kind::kFixed;
  spec.fixed = size;
  return spec;
}

SizeSpec SizeSpec::uniform_log(std::uint32_t min_log, std::uint32_t max_log) {
  PARTREE_ASSERT(min_log <= max_log, "uniform_log: min_log > max_log");
  SizeSpec spec;
  spec.kind = Kind::kUniformLog;
  spec.min_log = min_log;
  spec.max_log = max_log;
  return spec;
}

SizeSpec SizeSpec::geometric(double p, std::uint32_t max_log) {
  PARTREE_ASSERT(p >= 0.0 && p < 1.0, "geometric: p must be in [0,1)");
  SizeSpec spec;
  spec.kind = Kind::kGeometric;
  spec.geo_p = p;
  spec.max_log = max_log;
  return spec;
}

SizeSpec SizeSpec::zipf_log(double theta, std::uint32_t max_log) {
  PARTREE_ASSERT(theta >= 0.0, "zipf_log: theta must be nonnegative");
  SizeSpec spec;
  spec.kind = Kind::kZipfLog;
  spec.zipf_theta = theta;
  spec.max_log = max_log;
  return spec;
}

std::uint64_t SizeSpec::sample(util::Rng& rng, std::uint64_t n_pes) const {
  std::uint64_t size = 1;
  switch (kind) {
    case Kind::kFixed:
      size = fixed;
      break;
    case Kind::kUniformLog: {
      const std::uint32_t log =
          static_cast<std::uint32_t>(rng.range(min_log, max_log));
      size = std::uint64_t{1} << log;
      break;
    }
    case Kind::kGeometric: {
      std::uint32_t log = 0;
      while (log < max_log && rng.bernoulli(geo_p)) ++log;
      size = std::uint64_t{1} << log;
      break;
    }
    case Kind::kZipfLog: {
      // Inverse-CDF over the (max_log + 1) log-size classes.
      double total = 0.0;
      for (std::uint32_t k = 0; k <= max_log; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_theta);
      }
      double draw = rng.uniform01() * total;
      std::uint32_t log = 0;
      for (std::uint32_t k = 0; k <= max_log; ++k) {
        draw -= 1.0 / std::pow(static_cast<double>(k + 1), zipf_theta);
        if (draw <= 0.0) {
          log = k;
          break;
        }
      }
      size = std::uint64_t{1} << log;
      break;
    }
  }
  return std::min<std::uint64_t>(size, n_pes);
}

std::string SizeSpec::describe() const {
  switch (kind) {
    case Kind::kFixed:
      return "fixed(" + std::to_string(fixed) + ")";
    case Kind::kUniformLog:
      return "uniform-log(" + std::to_string(min_log) + ".." +
             std::to_string(max_log) + ")";
    case Kind::kGeometric:
      return "geometric(p=" + std::to_string(geo_p) +
             ",max_log=" + std::to_string(max_log) + ")";
    case Kind::kZipfLog:
      return "zipf-log(theta=" + std::to_string(zipf_theta) +
             ",max_log=" + std::to_string(max_log) + ")";
  }
  return "unknown";
}

std::uint32_t log_arity(std::uint64_t n_pes, std::uint64_t arity) {
  PARTREE_ASSERT(arity >= 2 && util::is_pow2(arity),
                 "arity must be a power of two >= 2");
  const std::uint32_t bits = util::exact_log2(arity);
  const std::uint32_t height = util::exact_log2(n_pes);
  PARTREE_ASSERT(height % bits == 0, "N is not a power of the arity");
  return height / bits;
}

}  // namespace partree::workload
