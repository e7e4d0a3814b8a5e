#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <optional>
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

TEST(SweepTest, CheckpointRoundTrips) {
  const SweepGrid grid = test_grid();
  SweepReport report = run_sweep(grid, fast_options());
  // A shard of a second or more has ten significant digits at ns
  // resolution; the checkpoint keeps nine, and identity ignores them.
  report.shards[1].wall_seconds = 1.234567891;
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

  // So does a v1 file, whose shard digests folded only final_digest.
  const std::string v2_tag = "partree-sweep-ckpt-v2";
  std::string v1 = write_checkpoint(grid, report.shards);
  const std::size_t tag = v1.find(v2_tag);
  ASSERT_NE(tag, std::string::npos);
  v1.replace(tag, v2_tag.size(), "partree-sweep-ckpt-v1");
  EXPECT_THROW((void)read_checkpoint(v1), std::runtime_error);
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
  options.on_shard_done = [](const SweepShard&) { return false; };
  const SweepReport partial = run_sweep(grid, options);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_run, 1u);

  options.on_shard_done = nullptr;
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
          return true;
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
  // cell -- the shape a behavior change in the binary leaves behind. A
  // changed max_load with the final digest untouched is what an allocator
  // change leaves once every task has departed.
  const std::vector<void (*)(SweepCellResult&)> forgeries = {
      [](SweepCellResult& cell) { cell.final_digest ^= 0x1; },
      [](SweepCellResult& cell) { cell.max_load += 1; },
  };
  for (std::size_t f = 0; f < forgeries.size(); ++f) {
    std::vector<SweepShard> shards = reference.shards;
    forgeries[f](shards[0].cells[0]);  // shard.digest() refolds cells
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
    EXPECT_TRUE(noted_stale) << "expected a STALE-checkpoint note, forgery "
                             << f;
    EXPECT_EQ(report.shards_resumed, 0u) << "forgery " << f;
    EXPECT_EQ(report.shards_run, grid.shard_count()) << "forgery " << f;
    // The rerun converges on the truth, not the forged checkpoint.
    EXPECT_EQ(report.combined_digest, reference.combined_digest)
        << "forgery " << f;
  }
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

// Fault kinds the sweep cannot apply, steps past the last cell, and grids
// no shard can run (a machine size that is not a power of two, an unknown
// campaign or allocator spec) fail the whole sweep up front, before any
// shard runs or checkpoints.
TEST(SweepTest, InvalidFaultPlansThrowBeforeRunning) {
  const SweepGrid grid = test_grid();
  ASSERT_EQ(grid.cell_count(), 6u);
  const std::string ckpt = temp_ckpt("invalid");
  const auto expect_rejected = [&ckpt](const SweepGrid& bad,
                                       const char* plan) {
    SweepOptions options = fast_options();
    options.checkpoint_path = ckpt;
    options.faults = FaultPlan::parse(plan);
    EXPECT_THROW((void)run_sweep(bad, options), std::invalid_argument)
        << bad.to_string() << " faults " << plan;
    EXPECT_FALSE(util::read_file(ckpt).has_value())
        << bad.to_string() << " faults " << plan;
  };
  for (const char* plan : {"perturb:pool@3", "corrupt:load_tree@1",
                           "cancel@6", "alloc_fail@0,cancel@999"}) {
    expect_rejected(grid, plan);
  }
  for (const char* spec : {"pes=100", "pes=0", "allocs=dchoice:k=0",
                           "campaigns=nope", "allocs=bogus",
                           "allocs=dmix:d=x"}) {
    expect_rejected(SweepGrid::parse(spec), "");
  }

  const SweepReport reference = run_sweep(grid, fast_options());
  SweepOptions options = fast_options();
  options.faults = FaultPlan::parse("alloc_fail@0,cancel@5");
  const SweepReport report = run_sweep(grid, options);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.combined_digest, reference.combined_digest);
}

// A shard that keeps failing past max_retries fails the sweep, naming
// the shard; the checkpoint keeps every shard completed before it, and a
// resume picks up from there.
TEST(SweepTest, ExhaustedRetriesKeepTheCheckpoint) {
  const SweepGrid grid = test_grid();
  const SweepReport reference = run_sweep(grid, fast_options());
  const std::string ckpt = temp_ckpt("exhausted.json");

  SweepOptions options = fast_options();
  options.checkpoint_path = ckpt;
  options.max_retries = 0;
  options.faults = FaultPlan::parse("cancel@2");  // aborts shard 1, try 1
  try {
    (void)run_sweep(grid, options);
    ADD_FAILURE() << "expected the sweep to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 1 "), std::string::npos)
        << e.what();
  }
  const std::optional<std::string> text = util::read_file(ckpt);
  ASSERT_TRUE(text.has_value());
  const SweepCheckpoint kept = read_checkpoint(*text);
  ASSERT_EQ(kept.shards.size(), 1u);
  EXPECT_EQ(kept.shards[0].index, 0u);

  options.faults = FaultPlan();
  options.resume = true;
  const SweepReport resumed = run_sweep(grid, options);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.shards_resumed, 1u);
  EXPECT_EQ(resumed.combined_digest, reference.combined_digest);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace partree::sim
