// sweep_runner: crash-safe, resumable experiment sweeps (sim/sweep.hpp).
//
// Runs a (campaign x allocator x topology x seed-range) grid in
// deterministic shards, checkpointing after every completed shard --
// atomically, so a SIGKILL at any instant leaves a complete
// partree-sweep-ckpt-v1 file that --resume can pick up. Resume re-verifies
// a sampled subset of completed shards by digest; a mismatch (the
// checkpoint predates a behavior change in the binary) reruns from
// scratch with a clear message.
//
//   sweep_runner --grid e3 --out e3.ckpt.json
//   sweep_runner --grid e3 --resume e3.ckpt.json        # after a kill
//   sweep_runner --grid 'campaigns=churn;allocs=greedy,basic;pes=64;
//                        n-seeds=8;shard=4' --out churn.ckpt.json
//   sweep_runner --grid e7 --out e7.ckpt.json --procs 4 # subprocess shards
//
// --procs N trades the in-process worker pool for process-level isolation:
// each shard runs in its own re-exec'd child (--run-shard), so a shard
// that crashes -- or is OOM-killed -- costs one retry, not the sweep.
// --kill-after K hard-aborts (SIGKILL) after K completed shards; the
// kill-resume CI job uses it to prove checkpoint atomicity.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/digest.hpp"
#include "util/file.hpp"

namespace {

using partree::sim::FaultPlan;
using partree::sim::SweepGrid;
using partree::sim::SweepOptions;
using partree::sim::SweepReport;
using partree::sim::SweepShard;

[[nodiscard]] std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

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

/// Child side of --procs: run exactly one shard, write its JSON
/// atomically, exit 0. Any failure (including an injected cancel fault)
/// exits nonzero and the parent retries.
[[nodiscard]] int run_shard_child(const partree::util::Cli& cli) {
  const SweepGrid grid = SweepGrid::parse(cli.get("grid"));
  const std::uint64_t shard = cli.get_u64("run-shard");
  const FaultPlan faults = FaultPlan::parse(cli.get("faults"));
  const SweepShard result = partree::sim::run_shard(
      grid, shard, static_cast<std::size_t>(cli.get_u64("n-threads")),
      faults.empty() ? nullptr : &faults);
  const std::string out = partree::sim::shard_to_json(result).dump() + "\n";
  if (!partree::util::write_file_atomic(cli.get("shard-out"), out)) {
    std::fprintf(stderr, "sweep_runner: cannot write %s\n",
                 cli.get("shard-out").c_str());
    return 2;
  }
  return 0;
}

/// Parent side of --procs: shard-per-subprocess with retry; checkpoints
/// after every collected shard, exactly like the in-process runner.
[[nodiscard]] SweepReport run_with_procs(const std::string& argv0,
                                         const SweepGrid& grid,
                                         const SweepOptions& options,
                                         std::uint64_t procs,
                                         std::uint64_t kill_after) {
  // A child acts only on the cancel and alloc_fail faults at its own
  // cells, so an invalid plan would pass silently: reject it here, as
  // run_sweep does in process.
  partree::sim::validate_sweep_faults(grid, options.faults);
  std::vector<std::string> notes;
  std::map<std::uint64_t, SweepShard> done =
      partree::sim::load_resumable_shards(grid, options, notes);
  const std::uint64_t resumed = done.size();

  std::vector<std::uint64_t> pending;
  for (std::uint64_t s = 0; s < grid.shard_count(); ++s) {
    if (!done.contains(s)) pending.push_back(s);
  }

  const std::string scratch = options.checkpoint_path.empty()
                                  ? std::string("sweep_shard")
                                  : options.checkpoint_path + ".shard";
  std::uint64_t retries = 0;
  std::uint64_t run_count = 0;

  const auto checkpoint = [&] {
    if (options.checkpoint_path.empty()) return;
    std::vector<SweepShard> all;
    all.reserve(done.size());
    for (const auto& [index, shard] : done) all.push_back(shard);
    if (!partree::util::write_file_atomic(
            options.checkpoint_path,
            partree::sim::write_checkpoint(grid, all))) {
      notes.push_back("WARNING: could not write checkpoint " +
                      options.checkpoint_path);
    }
  };

  struct Child {
    std::uint64_t shard = 0;
    std::string out_path;
    std::FILE* pipe = nullptr;
  };

  std::size_t next = 0;
  std::map<std::uint64_t, std::uint64_t> attempts;
  while (!pending.empty()) {
    // Launch up to `procs` children for the head of the pending list.
    std::vector<Child> batch;
    for (std::uint64_t p = 0; p < procs && next < pending.size(); ++p) {
      Child child;
      child.shard = pending[next++];
      child.out_path = scratch + std::to_string(child.shard) + ".json";
      const std::uint64_t attempt = ++attempts[child.shard];
      std::string cmd = shell_quote(argv0);
      cmd += " --run-shard " + std::to_string(child.shard);
      cmd += " --grid " + shell_quote(grid.to_string());
      cmd += " --shard-out " + shell_quote(child.out_path);
      cmd += " --n-threads " + std::to_string(options.n_threads);
      if (attempt == 1 && !options.faults.empty()) {
        cmd += " --faults " + shell_quote(options.faults.to_string());
      }
      child.pipe = popen(cmd.c_str(), "r");
      batch.push_back(std::move(child));
    }
    if (batch.empty()) break;

    std::vector<std::uint64_t> failed;
    for (Child& child : batch) {
      const int rc = child.pipe != nullptr ? pclose(child.pipe) : -1;
      bool ok = rc == 0;
      if (ok) {
        const auto text = partree::util::read_file(child.out_path);
        try {
          if (!text) throw std::runtime_error("missing shard output");
          done.emplace(child.shard,
                       partree::sim::shard_from_json(
                           partree::util::json::parse(*text)));
        } catch (const std::exception& e) {
          notes.push_back("shard " + std::to_string(child.shard) +
                          " output unreadable (" + e.what() + ")");
          ok = false;
        }
      }
      std::remove(child.out_path.c_str());
      if (ok) {
        done.at(child.shard).attempts = attempts.at(child.shard);
        ++run_count;
        checkpoint();
        if (kill_after != 0 && run_count >= kill_after) {
          std::raise(SIGKILL);
        }
        continue;
      }
      if (attempts.at(child.shard) > options.max_retries) {
        throw std::runtime_error("sweep: shard " +
                                 std::to_string(child.shard) +
                                 " failed after " +
                                 std::to_string(attempts.at(child.shard)) +
                                 " attempts (subprocess exit " +
                                 std::to_string(rc) + ")");
      }
      ++retries;
      notes.push_back("shard " + std::to_string(child.shard) + " attempt " +
                      std::to_string(attempts.at(child.shard)) +
                      " failed in subprocess; retrying");
      const std::uint64_t backoff =
          std::min(options.retry_backoff_ms << (attempts.at(child.shard) - 1),
                   options.retry_backoff_cap_ms);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      failed.push_back(child.shard);
    }
    // Retries go to the front so a flaky shard cannot starve behind the
    // rest of the queue.
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(next));
    pending.insert(pending.begin(), failed.begin(), failed.end());
    next = 0;
  }

  SweepReport report = partree::sim::merge_shards(grid, done);
  report.shards_run = run_count;
  report.shards_resumed = resumed;
  report.retries = retries;
  report.notes = std::move(notes);
  return report;
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
      .option("procs",
              "run each shard in its own subprocess, N at a time "
              "(0 = in-process worker pool)",
              "0")
      .option("n-threads", "worker threads per shard (0 = pool default)",
              "0")
      .option("faults",
              "fault plan over flat cell indices (alloc_fail/cancel), for "
              "testing the retry path",
              "")
      .option("verify-sample",
              "completed shards to digest-verify on resume", "2")
      .option("max-retries", "retries per failing shard", "3")
      .option("kill-after",
              "hard-abort (SIGKILL) after this many completed shards; "
              "kill-resume test hook",
              "0")
      .option("run-shard", "internal: run one shard and exit", "")
      .option("shard-out", "internal: where --run-shard writes its JSON",
              "")
      .flag("cells", "print every cell, not just per-shard summaries");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get("grid").empty()) {
    std::fputs(cli.usage(argv[0]).c_str(), stderr);
    std::fputs("\n--grid is required\n", stderr);
    return 2;
  }

  try {
    if (!cli.get("run-shard").empty()) return run_shard_child(cli);

    const SweepGrid grid = SweepGrid::parse(cli.get("grid"));
    SweepOptions options;
    options.n_threads = static_cast<std::size_t>(cli.get_u64("n-threads"));
    options.resume = !cli.get("resume").empty();
    options.checkpoint_path =
        options.resume ? cli.get("resume") : cli.get("out");
    options.verify_sample = cli.get_u64("verify-sample");
    options.max_retries = cli.get_u64("max-retries");
    options.faults = FaultPlan::parse(cli.get("faults"));

    const std::uint64_t procs = cli.get_u64("procs");
    const std::uint64_t kill_after = cli.get_u64("kill-after");
    SweepReport report;
    if (procs > 0) {
      report = run_with_procs(argv[0], grid, options, procs, kill_after);
    } else {
      if (kill_after != 0) {
        std::uint64_t completed = 0;
        options.on_shard_done = [&completed, kill_after](const SweepShard&) {
          if (++completed >= kill_after) std::raise(SIGKILL);
        };
      }
      report = partree::sim::run_sweep(grid, options);
    }
    print_report(report, cli.get_flag("cells"));
    return report.complete ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_runner: %s\n", e.what());
    return 1;
  }
}
