// Multi-trial runs for randomized algorithms.
//
// The paper's randomized load metric is max_tau E[L(sigma; tau)] -- the
// maximum over time of the EXPECTED load -- which differs from the more
// pessimistic E[max_tau L]. We estimate both: trials share the fixed
// sequence but use distinct seeds; per-event load series are averaged
// pointwise for the paper metric.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/sequence.hpp"
#include "tree/topology.hpp"

namespace partree::sim {

struct TrialOptions {
  std::size_t trials = 32;
  std::uint64_t seed = 1;
};

struct TrialAggregate {
  std::string allocator;
  std::uint64_t n_pes = 0;
  std::size_t trials = 0;
  std::uint64_t optimal_load = 0;

  /// E[max_tau L]: mean over trials of the per-trial maximum load.
  double expected_max_load = 0.0;
  double stddev_max_load = 0.0;
  /// Integer extremes of the per-trial maximum load, tracked exactly
  /// (never round-tripped through doubles).
  std::uint64_t min_max_load = 0;
  std::uint64_t max_max_load = 0;

  /// max_tau E[L(tau)]: the paper's randomized load.
  double max_expected_load = 0.0;

  [[nodiscard]] double expected_ratio() const noexcept {
    return optimal_load == 0 ? 1.0
                             : expected_max_load /
                                   static_cast<double>(optimal_load);
  }
  [[nodiscard]] double paper_ratio() const noexcept {
    return optimal_load == 0 ? 1.0
                             : max_expected_load /
                                   static_cast<double>(optimal_load);
  }
};

/// Runs `options.trials` independent simulations of `spec` over the same
/// sequence, one after another (trial i seeds its allocator with
/// options.seed + i), and aggregates, streaming: per-event series fold
/// into one O(horizon) pointwise integer sum rather than materializing
/// trials x horizon memory.
[[nodiscard]] TrialAggregate run_trials(tree::Topology topo,
                                        const core::TaskSequence& sequence,
                                        std::string_view spec,
                                        const TrialOptions& options = {});

}  // namespace partree::sim
