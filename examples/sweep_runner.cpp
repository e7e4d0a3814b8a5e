// sweep_runner: crash-safe, resumable experiment sweeps (sim/sweep.hpp).
//
// Runs a (campaign x allocator x topology x seed-range) grid in
// deterministic shards, checkpointing after every completed shard --
// atomically, so a SIGKILL at any instant leaves a complete
// partree-sweep-ckpt-v2 file that --resume can pick up. Resume re-verifies
// a sampled subset of completed shards by digest; a mismatch (the
// checkpoint predates a behavior change in the binary) reruns from
// scratch with a clear message.
//
//   sweep_runner --grid e3 --out e3.ckpt.json
//   sweep_runner --grid e3 --resume e3.ckpt.json        # after a kill
//   sweep_runner --grid 'campaigns=churn;allocs=greedy,basic;pes=64;
//                        n-seeds=8;shard=4' --out churn.ckpt.json
//
// --kill-after K hard-aborts (SIGKILL) after K completed shards; the
// kill-resume CI job uses it to prove checkpoint atomicity. An invalid
// grid or fault plan prints `sweep_runner: ...` and exits 1 before any
// shard runs.
#include <csignal>
#include <cstdio>
#include <string>

#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/digest.hpp"

namespace {

using partree::sim::FaultPlan;
using partree::sim::SweepGrid;
using partree::sim::SweepOptions;
using partree::sim::SweepReport;
using partree::sim::SweepShard;

void print_report(const SweepReport& report, bool print_cells) {
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const SweepShard& shard : report.shards) {
    std::printf("shard %3llu  cells %3zu  attempts %llu  %7.3fs  %s\n",
                static_cast<unsigned long long>(shard.index),
                shard.cells.size(),
                static_cast<unsigned long long>(shard.attempts),
                shard.wall_seconds,
                partree::util::digest_hex(shard.digest()).c_str());
    if (print_cells) {
      for (const auto& cell : shard.cells) {
        std::printf(
            "  cell %4llu %-12s %-12s pes=%-5llu seed=%-4llu "
            "L=%llu L*=%llu reallocs=%llu migrations=%llu %s\n",
            static_cast<unsigned long long>(cell.cell.index),
            cell.cell.campaign.c_str(), cell.cell.allocator.c_str(),
            static_cast<unsigned long long>(cell.cell.n_pes),
            static_cast<unsigned long long>(cell.cell.seed),
            static_cast<unsigned long long>(cell.max_load),
            static_cast<unsigned long long>(cell.optimal_load),
            static_cast<unsigned long long>(cell.reallocations),
            static_cast<unsigned long long>(cell.migrations),
            partree::util::digest_hex(cell.final_digest).c_str());
      }
    }
  }
  std::printf(
      "sweep %s: %llu cells in %zu shards (%llu run, %llu resumed, "
      "%llu retries), worst ratio %.3f, reallocs %llu, migrations %llu\n",
      report.complete ? "complete" : "INCOMPLETE",
      static_cast<unsigned long long>(report.cells), report.shards.size(),
      static_cast<unsigned long long>(report.shards_run),
      static_cast<unsigned long long>(report.shards_resumed),
      static_cast<unsigned long long>(report.retries), report.worst_ratio,
      static_cast<unsigned long long>(report.total_reallocations),
      static_cast<unsigned long long>(report.total_migrations));
  std::printf("combined_digest=%s\n",
              partree::util::digest_hex(report.combined_digest).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  partree::util::Cli cli;
  cli.option("grid",
             "grid spec or preset (e3, e7); see sim/sweep.hpp for the "
             "grammar",
             "")
      .option("out", "checkpoint/output path for a fresh sweep", "")
      .option("resume",
              "checkpoint to resume from (and keep checkpointing to)", "")
      .option("n-threads", "worker threads per shard (0 = pool default)",
              "0", partree::util::Cli::Kind::kU64)
      .option("faults",
              "fault plan over flat cell indices (alloc_fail/cancel), for "
              "testing the retry path",
              "")
      .option("verify-sample",
              "completed shards to digest-verify on resume", "2",
              partree::util::Cli::Kind::kU64)
      .option("max-retries", "retries per failing shard", "3",
              partree::util::Cli::Kind::kU64)
      .option("kill-after",
              "hard-abort (SIGKILL) after this many completed shards; "
              "kill-resume test hook",
              "0", partree::util::Cli::Kind::kU64)
      .flag("cells", "print every cell, not just per-shard summaries");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get("grid").empty()) {
    std::fputs(cli.usage(argv[0]).c_str(), stderr);
    std::fputs("\n--grid is required\n", stderr);
    return 2;
  }

  try {
    const SweepGrid grid = SweepGrid::parse(cli.get("grid"));
    SweepOptions options;
    options.n_threads = static_cast<std::size_t>(cli.get_u64("n-threads"));
    options.resume = !cli.get("resume").empty();
    options.checkpoint_path =
        options.resume ? cli.get("resume") : cli.get("out");
    options.verify_sample = cli.get_u64("verify-sample");
    options.max_retries = cli.get_u64("max-retries");
    options.faults = FaultPlan::parse(cli.get("faults"));

    if (const std::uint64_t kill_after = cli.get_u64("kill-after");
        kill_after != 0) {
      options.on_shard_done = [completed = std::uint64_t{0},
                               kill_after](const SweepShard&) mutable {
        if (++completed >= kill_after) std::raise(SIGKILL);
        return true;
      };
    }
    const SweepReport report = partree::sim::run_sweep(grid, options);
    print_report(report, cli.get_flag("cells"));
    return report.complete ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_runner: %s\n", e.what());
    return 1;
  }
}
