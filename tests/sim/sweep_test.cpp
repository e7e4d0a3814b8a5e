#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/digest.hpp"
#include "util/file.hpp"

namespace partree::sim {
namespace {

// Small but multi-shard: 1 campaign x 2 allocators x 1 size x 3 seeds =
// 6 cells in 3 shards. Big enough for abort/resume choreography, small
// enough to keep the whole file in the tier-1 budget.
SweepGrid test_grid() {
  SweepGrid grid;
  grid.campaigns = {"steady-mix"};
  grid.allocators = {"greedy", "basic"};
  grid.n_pes = {16};
  grid.seed_base = 1;
  grid.n_seeds = 3;
  grid.scale = 0.05;
  grid.shard_cells = 2;
  return grid;
}

SweepOptions fast_options() {
  SweepOptions options;
  options.retry_backoff_ms = 0;  // no sleeping in tests
  return options;
}

// Result identity across runs: per-shard cells and digests, ignoring
// wall_seconds (informational) and attempts (retry bookkeeping).
void expect_same_results(const std::vector<SweepShard>& a,
                         const std::vector<SweepShard>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].cells, b[i].cells) << "shard " << i;
    EXPECT_EQ(a[i].digest(), b[i].digest()) << "shard " << i;
  }
}

std::string temp_ckpt(const std::string& name) {
  const std::string path = ::testing::TempDir() + "sweep_test." + name;
  std::remove(path.c_str());
  return path;
}

TEST(SweepGridTest, ParsePresets) {
  const SweepGrid e3 = SweepGrid::parse("e3");
  EXPECT_GT(e3.cell_count(), 0u);
  EXPECT_GT(e3.shard_count(), 1u);
  const SweepGrid e7 = SweepGrid::parse("e7");
  EXPECT_GT(e7.cell_count(), 0u);
  EXPECT_NE(e3, e7);
}

TEST(SweepGridTest, ParseToStringRoundTrips) {
  const SweepGrid grid = test_grid();
  EXPECT_EQ(SweepGrid::parse(grid.to_string()), grid);
  // Presets canonicalize to the explicit grammar and round-trip from there.
  const SweepGrid e3 = SweepGrid::parse("e3");
  EXPECT_EQ(SweepGrid::parse(e3.to_string()), e3);
}

TEST(SweepGridTest, ParseRejectsUnknownKey) {
  EXPECT_THROW((void)SweepGrid::parse("campaigns=churn;bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)SweepGrid::parse("pes=notanumber"),
               std::invalid_argument);
}

TEST(SweepGridTest, CellEnumerationIsSeedInnermost) {
  const SweepGrid grid = test_grid();
  ASSERT_EQ(grid.cell_count(), 6u);
  ASSERT_EQ(grid.shard_count(), 3u);
  // campaign outermost, then allocator, then n_pes, seeds innermost.
  EXPECT_EQ(grid.cell(0).allocator, "greedy");
  EXPECT_EQ(grid.cell(0).seed, 1u);
  EXPECT_EQ(grid.cell(2).allocator, "greedy");
  EXPECT_EQ(grid.cell(2).seed, 3u);
  EXPECT_EQ(grid.cell(3).allocator, "basic");
  EXPECT_EQ(grid.cell(3).seed, 1u);
  for (std::uint64_t i = 0; i < grid.cell_count(); ++i) {
    EXPECT_EQ(grid.cell(i).index, i);
  }
  EXPECT_EQ(grid.shard_range(0), (std::pair<std::uint64_t, std::uint64_t>{
                                     0, 2}));
  EXPECT_EQ(grid.shard_range(2), (std::pair<std::uint64_t, std::uint64_t>{
                                     4, 6}));
}

TEST(SweepGridTest, RaggedFinalShard) {
  SweepGrid grid = test_grid();
  grid.shard_cells = 4;  // 6 cells -> shards of 4 and 2
  ASSERT_EQ(grid.shard_count(), 2u);
  EXPECT_EQ(grid.shard_range(1), (std::pair<std::uint64_t, std::uint64_t>{
                                     4, 6}));
}

TEST(SweepTest, RunSweepAggregates) {
  const SweepGrid grid = test_grid();
  const SweepReport report = run_sweep(grid, fast_options());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.cells, grid.cell_count());
  EXPECT_EQ(report.shards.size(), grid.shard_count());
  EXPECT_EQ(report.shards_run, grid.shard_count());
  EXPECT_EQ(report.shards_resumed, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_GE(report.worst_ratio, 1.0);
  EXPECT_NE(report.combined_digest, 0u);
  for (const SweepShard& shard : report.shards) {
    EXPECT_EQ(shard.attempts, 1u);
    for (const SweepCellResult& cell : shard.cells) {
      EXPECT_GT(cell.events, 0u);
      EXPECT_NE(cell.final_digest, 0u);
    }
  }
}

TEST(SweepTest, RunSweepIsDeterministic) {
  const SweepGrid grid = test_grid();
  const SweepReport a = run_sweep(grid, fast_options());
  SweepOptions single = fast_options();
  single.n_threads = 1;  // thread count must not affect results
  const SweepReport b = run_sweep(grid, single);
  EXPECT_EQ(a.combined_digest, b.combined_digest);
  expect_same_results(a.shards, b.shards);
}

TEST(SweepTest, ShardJsonRoundTrips) {
  const SweepGrid grid = test_grid();
  const SweepShard shard = run_shard(grid, 1);
  const SweepShard back = shard_from_json(shard_to_json(shard));
  EXPECT_EQ(back, shard);
  EXPECT_EQ(back.digest(), shard.digest());
}

TEST(SweepTest, CheckpointRoundTrips) {
  const SweepGrid grid = test_grid();
  const SweepReport report = run_sweep(grid, fast_options());
  const std::string text = write_checkpoint(grid, report.shards);
  const SweepCheckpoint ckpt = read_checkpoint(text);
  EXPECT_EQ(ckpt.grid_text, grid.to_string());
  EXPECT_EQ(ckpt.shards, report.shards);
}

TEST(SweepTest, CorruptCheckpointFailsLoudly) {
  const SweepGrid grid = test_grid();
  const SweepReport report = run_sweep(grid, fast_options());
  std::string text = write_checkpoint(grid, report.shards);

  // Flip one hex digit of one cell digest: the shard's recorded digest no
  // longer matches the fold of its cells, which read_checkpoint treats as
  // corruption.
  const std::string needle = util::digest_hex(
      report.shards[0].cells[0].final_digest);
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  const std::size_t digit = pos + needle.size() - 1;
  text[digit] = text[digit] == '0' ? '1' : '0';
  EXPECT_THROW((void)read_checkpoint(text), std::runtime_error);

  // Truncation fails loudly too (at the JSON layer).
  EXPECT_THROW((void)read_checkpoint(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

TEST(SweepTest, ResumeSkipsCompletedShards) {
  const SweepGrid grid = test_grid();
  const std::string ckpt = temp_ckpt("resume.json");

  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  const SweepReport first = run_sweep(grid, options);
  EXPECT_TRUE(first.complete);

  options.resume = true;
  const SweepReport second = run_sweep(grid, options);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.shards_resumed, grid.shard_count());
  // verify_sample shards are re-run for digest verification; nothing else.
  EXPECT_EQ(second.shards_run, 0u);
  EXPECT_EQ(second.combined_digest, first.combined_digest);
  EXPECT_EQ(second.shards, first.shards);
  std::remove(ckpt.c_str());
}

TEST(SweepTest, InterruptedResumeMatchesUninterrupted) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());

  const std::string ckpt = temp_ckpt("interrupted.json");
  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  options.abort_after_shards = 1;
  const SweepReport partial = run_sweep(grid, options);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_run, 1u);

  options.abort_after_shards = 0;
  options.resume = true;
  const SweepReport resumed = run_sweep(grid, options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.shards_resumed, 1u);
  EXPECT_EQ(resumed.shards_run, grid.shard_count() - 1);

  // The acceptance bar: merged results bit-identical to an uninterrupted
  // run -- per-shard digests and the combined fold.
  expect_same_results(resumed.shards, reference.shards);
  EXPECT_EQ(resumed.combined_digest, reference.combined_digest);
  EXPECT_EQ(resumed.total_reallocations, reference.total_reallocations);
  EXPECT_EQ(resumed.total_migrations, reference.total_migrations);
  EXPECT_EQ(resumed.worst_ratio, reference.worst_ratio);
  std::remove(ckpt.c_str());
}

// The hard-kill variant: the process is SIGKILLed right after shard 0's
// checkpoint is durable -- no destructors, no atexit, nothing. The file
// left behind must be a complete checkpoint the next run can resume into
// digest-identical results.
TEST(SweepDeathTest, KilledSweepResumesDigestIdentical) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());
  const std::string ckpt = temp_ckpt("killed.json");

  EXPECT_EXIT(
      {
        SweepOptions options = fast_options();
        options.checkpoint_path = ckpt;
        options.on_shard_done = [](const SweepShard&) {
          std::raise(SIGKILL);
        };
        (void)run_sweep(grid, options);
      },
      ::testing::KilledBySignal(SIGKILL), "");

  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  options.resume = true;
  const SweepReport resumed = run_sweep(grid, options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.shards_resumed, 1u);
  expect_same_results(resumed.shards, reference.shards);
  EXPECT_EQ(resumed.combined_digest, reference.combined_digest);
  std::remove(ckpt.c_str());
}

TEST(SweepTest, StaleCheckpointRerunsFromScratch) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());
  const std::string ckpt = temp_ckpt("stale.json");

  // Forge a checkpoint whose shard 0 carries a self-consistent but WRONG
  // cell digest -- the shape a behavior change in the binary leaves behind.
  std::vector<SweepShard> shards = reference.shards;
  shards[0].cells[0].final_digest ^= 0x1;  // shard.digest() refolds cells
  ASSERT_TRUE(util::write_file_atomic(ckpt,
                                      write_checkpoint(grid, shards)));

  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  options.resume = true;
  options.verify_sample = grid.shard_count();  // verify every shard
  const SweepReport report = run_sweep(grid, options);

  bool noted_stale = false;
  for (const std::string& note : report.notes) {
    if (note.find("STALE") != std::string::npos) noted_stale = true;
  }
  EXPECT_TRUE(noted_stale) << "expected a STALE-checkpoint note";
  EXPECT_EQ(report.shards_resumed, 0u);
  EXPECT_EQ(report.shards_run, grid.shard_count());
  // The rerun converges on the truth, not the forged checkpoint.
  EXPECT_EQ(report.combined_digest, reference.combined_digest);
  std::remove(ckpt.c_str());
}

TEST(SweepTest, DifferentGridCheckpointIsIgnored) {
  const SweepGrid grid = test_grid();
  SweepGrid other = grid;
  other.n_seeds = 2;

  const std::string ckpt = temp_ckpt("othergrid.json");
  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  const SweepReport first = run_sweep(other, options);
  EXPECT_TRUE(first.complete);

  options.resume = true;
  const SweepReport report = run_sweep(grid, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.shards_resumed, 0u);
  EXPECT_EQ(report.shards_run, grid.shard_count());
  bool noted = false;
  for (const std::string& note : report.notes) {
    if (note.find("different grid") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted) << "expected a different-grid note";
  std::remove(ckpt.c_str());
}

TEST(SweepTest, MissingCheckpointResumeStartsFresh) {
  const SweepGrid grid = test_grid();
  SweepOptions options = fast_options();
  options.checkpoint_path = temp_ckpt("never_written.json");
  options.resume = true;
  const SweepReport report = run_sweep(grid, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.shards_resumed, 0u);
  std::remove(options.checkpoint_path.c_str());
}

TEST(SweepTest, CancelFaultRetriesShardDeterministically) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());

  SweepOptions options = fast_options();
  options.faults = FaultPlan::parse("cancel@2");  // aborts shard 1, try 1
  const SweepReport report = run_sweep(grid, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_GE(report.faults_injected, 1u);
  // The retried shard records its attempt count; results are unchanged.
  EXPECT_EQ(report.shards[1].attempts, 2u);
  EXPECT_EQ(report.combined_digest, reference.combined_digest);
}

TEST(SweepTest, AllocFailFaultIsDigestInvariant) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());

  SweepOptions options = fast_options();
  options.faults = FaultPlan::parse("alloc_fail@0,alloc_fail@5");
  const SweepReport report = run_sweep(grid, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.retries, 0u);  // transient: the engine recovers in-run
  EXPECT_GE(report.faults_injected, 2u);
  EXPECT_EQ(report.combined_digest, reference.combined_digest);
}

// Kinds the sweep cannot apply and steps past the last cell fail the
// whole sweep up front, before any shard runs or checkpoints.
TEST(SweepTest, InvalidFaultPlansThrowBeforeRunning) {
  const SweepGrid grid = test_grid();
  ASSERT_EQ(grid.cell_count(), 6u);
  for (const char* plan : {"perturb:pool@3", "corrupt:load_tree@1",
                           "cancel@6", "alloc_fail@0,cancel@999"}) {
    SweepOptions options = fast_options();
    options.checkpoint_path = temp_ckpt("invalid_faults");
    options.faults = FaultPlan::parse(plan);
    EXPECT_THROW(validate_sweep_faults(grid, options.faults),
                 std::invalid_argument)
        << plan;
    EXPECT_THROW((void)run_sweep(grid, options), std::invalid_argument)
        << plan;
    EXPECT_FALSE(util::read_file(options.checkpoint_path).has_value())
        << plan;
  }
  EXPECT_NO_THROW(
      validate_sweep_faults(grid, FaultPlan::parse("alloc_fail@0,cancel@5")));
}

}  // namespace
}  // namespace partree::sim
