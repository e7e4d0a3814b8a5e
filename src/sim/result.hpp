// Simulation results and their aggregation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>


namespace partree::sim {

/// One canonical MachineState digest taken at a reallocation-epoch
/// boundary (see EngineOptions::record_digests).
struct EpochDigest {
  /// Events processed when the digest was taken (1-based: the digest
  /// covers the state after event `event`).
  std::uint64_t event = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const EpochDigest&, const EpochDigest&) = default;
};

/// Outcome of replaying one sequence through one allocator.
struct SimResult {
  std::string allocator;
  std::uint64_t n_pes = 0;
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;

  /// L_A(sigma): maximum over events of the post-event machine max load.
  std::uint64_t max_load = 0;
  /// L*(sigma) = ceil(peak active size / N).
  std::uint64_t optimal_load = 0;

  /// Reallocation accounting ("the trade").
  std::uint64_t reallocation_count = 0;
  /// Task moves: the summed lengths of the rounds' plans, which list only
  /// the tasks that move.
  std::uint64_t migration_count = 0;
  /// Sum of sizes of moved tasks (PE-sized checkpoint volume).
  std::uint64_t migrated_size = 0;

  /// Post-event max-load series; filled only when requested.
  std::vector<std::uint64_t> load_series;
  /// Per-completed-task slowdowns (Section 2's user-visible cost), in
  /// departure order; filled only when requested.
  std::vector<std::uint64_t> task_slowdowns;
  /// Worst slowdown over all tasks (completed or not); 0 unless requested.
  std::uint64_t worst_slowdown = 0;
  /// Mean slowdown over completed tasks; 0 unless requested.
  double mean_slowdown = 0.0;

  /// Per-reallocation-epoch state digests plus the end-of-run digest;
  /// filled only when EngineOptions::record_digests is set.
  std::vector<EpochDigest> epoch_digests;
  /// MachineState digest at run end (0 unless record_digests).
  std::uint64_t final_digest = 0;
  /// Ordered digest of where every event left its task: per arrival, the
  /// event index, the task id and the node the state holds it on at the
  /// end of the step; per departure, the node the task left; per applied
  /// round, each move's id and destination. A closed-loop run ends
  /// drained, so its final_digest depends only on N and the peak active
  /// size; this one tells placements apart (0 unless record_digests).
  std::uint64_t placement_digest = 0;
  /// Faults actually applied by the injector during this run (0 when no
  /// injector was armed or every scheduled fault was inapplicable).
  std::uint64_t faults_injected = 0;

  double wall_seconds = 0.0;

  /// Competitive ratio vs the optimal load (1.0 when nothing ever ran).
  [[nodiscard]] double ratio() const noexcept {
    if (optimal_load == 0) return max_load == 0 ? 1.0 : 0.0;
    return static_cast<double>(max_load) / static_cast<double>(optimal_load);
  }
};

}  // namespace partree::sim
