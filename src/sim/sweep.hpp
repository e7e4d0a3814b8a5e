// Sharded, crash-safe, resumable sweep runner.
//
// The paper's experiments (the E3 trade-off curves, the Figure-1 sweep)
// are long multi-config grids; killing one mid-run used to lose every
// completed configuration. The sweep runner makes that loss bounded by
// one shard:
//
//   * A SweepGrid is the cross product (campaign x allocator x topology x
//     seed-range), enumerated in a fixed nested order and split into
//     deterministic contiguous shards of `shard_cells` cells.
//   * run_sweep is the one entry point. It replays each shard's cells
//     through the engine (cells fan out over the worker pool) with state
//     digests recorded, emits a kSweepShard trace instant per shard, and
//     after EVERY completed shard persists a "partree-sweep-ckpt-v2" JSON
//     checkpoint written atomically (tmp + fsync + rename,
//     util::write_file_atomic), so a SIGKILL at any instant leaves either
//     the previous or the new complete checkpoint -- never a truncated one.
//   * On restart with SweepOptions::resume, completed shards are loaded
//     from the checkpoint and skipped -- after re-running a sampled
//     subset and comparing shard digests, which fold every measured field
//     of every cell. A mismatch means the checkpoint predates a behavior
//     change in this binary; the runner says so and reruns from scratch
//     rather than merging incompatible halves.
//   * Failed shard attempts (anything the cell body throws, including
//     sim/faults.hpp cancel faults injected for deterministic testing)
//     are retried with capped exponential backoff.
//
// Everything is deterministic: an interrupted-then-resumed sweep produces
// per-shard digests and merged summaries bit-identical to an
// uninterrupted run of the same grid.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/faults.hpp"

namespace partree::sim {

/// One point of the sweep grid.
struct SweepCell {
  std::uint64_t index = 0;  ///< flat index in enumeration order
  std::string campaign;     ///< workload::make_campaign name
  std::string allocator;    ///< core::make_allocator spec
  std::uint64_t n_pes = 0;
  std::uint64_t seed = 0;

  friend bool operator==(const SweepCell&, const SweepCell&) = default;
};

/// The cross product to sweep. Cells are enumerated campaign-outermost,
/// seed-innermost: for each campaign, for each allocator, for each n_pes,
/// seeds seed_base .. seed_base + n_seeds - 1.
struct SweepGrid {
  std::vector<std::string> campaigns = {"steady-mix"};
  std::vector<std::string> allocators = {"greedy"};
  std::vector<std::uint64_t> n_pes = {64};
  std::uint64_t seed_base = 1;
  std::uint64_t n_seeds = 1;
  /// Campaign event-budget multiplier (workload::make_campaign scale).
  double scale = 0.1;
  /// Cells per shard (the checkpoint granularity).
  std::uint64_t shard_cells = 8;

  /// Parses either a named preset ("e3", "e7" -- the sweep-shaped
  /// analogues of experiments E3 and E7) or the grammar
  ///   campaigns=a,b;allocs=x,y;pes=64,256;seed-base=1;n-seeds=4;
  ///   scale=0.1;shard=8
  /// (any subset of keys; the rest keep their defaults). Throws
  /// std::invalid_argument naming the offending token.
  [[nodiscard]] static SweepGrid parse(std::string_view text);

  /// Canonical grammar form; parse(to_string()) round-trips, and the
  /// checkpoint embeds this string so resume can reject a checkpoint
  /// written for a different grid.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::uint64_t cell_count() const noexcept;
  [[nodiscard]] std::uint64_t shard_count() const noexcept;
  /// The cell at flat index `index` (< cell_count()).
  [[nodiscard]] SweepCell cell(std::uint64_t index) const;
  /// Flat cell-index range [first, last) of shard `shard`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> shard_range(
      std::uint64_t shard) const;

  friend bool operator==(const SweepGrid&, const SweepGrid&) = default;
};

/// Replay summary of one cell (one engine run with digests recorded).
struct SweepCellResult {
  SweepCell cell;
  std::uint64_t events = 0;
  std::uint64_t max_load = 0;
  std::uint64_t optimal_load = 0;
  std::uint64_t reallocations = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_size = 0;
  /// End-of-run MachineState digest. A closed-loop campaign ends with
  /// every task departed, so this alone depends only on N and the peak
  /// active size; the shard digest folds the measured fields above too.
  std::uint64_t final_digest = 0;

  friend bool operator==(const SweepCellResult&,
                         const SweepCellResult&) = default;
};

/// One completed shard: its cells in index order plus bookkeeping.
struct SweepShard {
  std::uint64_t index = 0;
  std::vector<SweepCellResult> cells;
  std::uint64_t attempts = 1;        ///< 1 = first try succeeded
  std::uint64_t faults_injected = 0; ///< engine-level faults applied
  double wall_seconds = 0.0;         ///< informational; not part of identity

  /// Ordered FNV fold of each cell's index and every measured field: the
  /// shard's identity for checkpoint-consistency and resume verification.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Identity without wall_seconds, which the checkpoint rounds to nine
  /// significant digits.
  friend bool operator==(const SweepShard& a, const SweepShard& b) {
    return a.index == b.index && a.cells == b.cells &&
           a.attempts == b.attempts && a.faults_injected == b.faults_injected;
  }
};

struct SweepOptions {
  /// Worker threads for the cells within a shard (0 = pool default).
  std::size_t n_threads = 0;
  /// Where checkpoints are written (atomically, after every completed
  /// shard). Empty disables checkpointing.
  std::string checkpoint_path;
  /// Load checkpoint_path (if it exists) and skip verified completed
  /// shards instead of rerunning them.
  bool resume = false;
  /// Completed shards to re-run and digest-compare before trusting a
  /// resumed checkpoint (evenly sampled; 0 trusts it blindly).
  std::uint64_t verify_sample = 2;
  /// Retries per shard after the first failed attempt.
  std::uint64_t max_retries = 3;
  /// Backoff before retry r: min(retry_backoff_ms << (r-1), 2 s).
  std::uint64_t retry_backoff_ms = 100;
  /// Deterministic fault plan for testing the retry path; steps are FLAT
  /// CELL INDICES. cancel@k aborts the first attempt of the shard
  /// containing cell k (sim/faults.hpp FaultInjectedError); alloc_fail@k
  /// injects a transient allocation failure inside cell k's engine run
  /// (digest-invariant). corrupt:*/perturb kinds are not meaningful at
  /// the sweep level and, like steps past the last cell, are rejected.
  FaultPlan faults;
  /// Invoked after each shard completes and its checkpoint (if any) is
  /// durable on disk; returning false stops the sweep there
  /// (report.complete = false, the checkpoint stays valid for resume).
  /// Kill-resume tests raise SIGKILL here.
  std::function<bool(const SweepShard&)> on_shard_done;
};

struct SweepReport {
  SweepGrid grid;
  /// All known shards, sorted by index (resumed + run this invocation).
  std::vector<SweepShard> shards;
  bool complete = false;
  std::uint64_t shards_run = 0;      ///< executed in this invocation
  std::uint64_t shards_resumed = 0;  ///< taken from the checkpoint
  std::uint64_t retries = 0;         ///< failed shard attempts retried
  std::uint64_t faults_injected = 0; ///< cancel throws + engine faults
  /// Human-readable resume/verification/retry messages, in order.
  std::vector<std::string> notes;

  /// Merged summary over all completed cells (deterministic: folded in
  /// cell-index order).
  std::uint64_t cells = 0;
  std::uint64_t total_reallocations = 0;
  std::uint64_t total_migrations = 0;
  std::uint64_t total_migrated_size = 0;
  double worst_ratio = 0.0;  ///< max over cells of max_load / optimal_load
  /// Ordered FNV fold of every cell's index and measured fields (the same
  /// fold as SweepShard::digest) -- the whole sweep's identity.
  std::uint64_t combined_digest = 0;
};

/// Runs a sweep: validate, resume (if asked), run the remaining
/// shards with retry + checkpoint-per-shard, and merge. Throws
/// std::invalid_argument before resuming or running anything when the
/// grid or fault plan is invalid: an n_pes that is not a power of two, an
/// unknown campaign, an allocator spec make_allocator rejects, a fault
/// kind other than cancel or alloc_fail, or a fault step that is not a
/// cell index. Throws std::runtime_error when a shard keeps failing past
/// max_retries (the checkpoint keeps everything completed so far).
[[nodiscard]] SweepReport run_sweep(const SweepGrid& grid,
                                    const SweepOptions& options = {});

/// Checkpoint serialization ("partree-sweep-ckpt-v2" JSON). Shards may be
/// passed in any order; they are written sorted by index.
[[nodiscard]] std::string write_checkpoint(
    const SweepGrid& grid, const std::vector<SweepShard>& shards);

struct SweepCheckpoint {
  std::string grid_text;  ///< canonical grid string the ckpt was written for
  std::vector<SweepShard> shards;  ///< sorted by index
};

/// Parses and validates a checkpoint: schema tag, per-shard digest
/// consistency (each shard's recorded digest must match the fold of its
/// cells), unique shard indices. Throws std::runtime_error naming the
/// violation, so a corrupt or truncated file fails loudly.
[[nodiscard]] SweepCheckpoint read_checkpoint(std::string_view text);

}  // namespace partree::sim
