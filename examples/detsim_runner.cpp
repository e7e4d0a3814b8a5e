// detsim_runner: seed sweeps, repro shrinking, and repro replay for the
// deterministic fault-injection harness (sim/detsim.hpp).
//
// Modes:
//   --seed-sweep K   Replay K seeded runs, each with a seed-derived random
//                    fault plan, and verify every one recovers (digest
//                    oracle), or, for an applied corruption, is caught by
//                    the engine's invariant net. Divergences are shrunk
//                    (with --shrink) and written as
//                    partree-detsim-repro-v2 files (CSV key,value rows,
//                    sim/faults.hpp). --n-pes and --events apply to every
//                    run, and the summary line prints n_pes=.
//   --replay FILE    Re-run one repro file, at its own machine size, event
//                    count and fault plan, and report whether the recorded
//                    run and outcome reproduce (exit 0 iff both do; 2 for a
//                    file that does not parse).
//   --one            Single faulted run, exactly as specified (exit 0
//                    unless it diverges).
//
// Examples:
//   detsim_runner --seed-sweep 500 --shrink
//   detsim_runner --seed-sweep 200 --budget-seconds 60 --repro-dir out
//   detsim_runner --seed-sweep 12 --n-pes 65536
//   detsim_runner --one --seed 21 --faults corrupt:load_tree@40
//   detsim_runner --replay out/repro_seed42.csv
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "core/factory.hpp"
#include "sim/detsim.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/digest.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

namespace {

using partree::sim::DetSimOptions;
using partree::sim::DetSimOutcome;
using partree::sim::DetSimReport;
using partree::sim::FaultPlan;

/// Allocators a sweep rotates through: the paper's main algorithms plus a
/// randomized one, covering both CopySet-backed and stateless placement.
const char* const kSweepAllocators[] = {"greedy", "basic", "dmix:d=1",
                                        "random", "randmix:d=2"};

[[nodiscard]] std::string read_or_exit(const std::string& path) {
  std::optional<std::string> text = partree::util::read_file(path);
  if (!text) {
    std::fprintf(stderr, "detsim_runner: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  return *std::move(text);
}

/// Writes `spec` as repro_seed<seed>.csv under `dir` atomically, so a kill
/// mid-write leaves the previous file or none, never a truncated one that
/// --replay would reject.
void write_repro_or_exit(const std::string& dir,
                         const partree::sim::ReproSpec& spec) {
  const std::string path =
      dir + "/repro_seed" + std::to_string(spec.seed) + ".csv";
  if (!partree::util::write_file_atomic(path,
                                        partree::sim::write_repro(spec))) {
    std::fprintf(stderr, "detsim_runner: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

void print_report(const DetSimOptions& options, const DetSimReport& report) {
  std::printf(
      "seed=%llu alloc=%s faults=[%s] outcome=%s applied=%llu "
      "baseline=%s run=%s placement_baseline=%s placement_run=%s\n",
      static_cast<unsigned long long>(options.seed),
      options.allocator.c_str(), options.faults.to_string().c_str(),
      std::string(partree::sim::outcome_name(report.outcome)).c_str(),
      static_cast<unsigned long long>(report.faults_applied),
      partree::util::digest_hex(report.baseline_digest).c_str(),
      partree::util::digest_hex(report.run_digest).c_str(),
      partree::util::digest_hex(report.baseline_placement_digest).c_str(),
      partree::util::digest_hex(report.run_placement_digest).c_str());
  if (!report.detail.empty()) {
    std::printf("  detail: %s\n", report.detail.c_str());
  }
}

/// --one: run exactly the specified faulted replay and print the report.
/// Exit 0 unless it diverged.
[[nodiscard]] int run_one(const DetSimOptions& options) {
  const DetSimReport report = partree::sim::run_detsim(options);
  print_report(options, report);
  return report.outcome == DetSimOutcome::kDivergence ? 1 : 0;
}

struct SweepStats {
  std::uint64_t runs = 0;
  std::uint64_t recovered = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t skipped = 0;
  std::uint64_t caught = 0;
  std::uint64_t failures = 0;
};

[[nodiscard]] int run_seed_sweep(const partree::util::Cli& cli) {
  const std::uint64_t n_seeds = cli.get_u64("seed-sweep");
  const std::uint64_t base_seed = cli.get_u64("seed");
  const std::uint64_t n_pes = cli.get_u64("n-pes");
  const std::uint64_t n_events = cli.get_u64("events");
  const double budget = cli.get_double("budget-seconds");
  const bool shrink = cli.get_flag("shrink");
  const bool no_corruption = cli.get_flag("no-corruption");
  const std::string repro_dir = cli.get("repro-dir");
  if (std::error_code ec;
      !std::filesystem::create_directories(repro_dir, ec) && ec) {
    std::fprintf(stderr, "detsim_runner: --repro-dir %s: %s\n",
                 repro_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const std::uint64_t start_ns = partree::util::monotonic_ns();
  const auto elapsed_s = [start_ns] {
    return static_cast<double>(partree::util::monotonic_ns() -
                               start_ns) /
           1e9;
  };
  partree::util::Rng plan_rng(base_seed ^ 0x9e3779b97f4a7c15ULL);
  SweepStats stats;

  // Per-seed fault injection.
  for (std::uint64_t i = 0; i < n_seeds; ++i) {
    if (budget > 0.0 && elapsed_s() >= budget) {
      std::printf("budget reached after %llu/%llu fault runs\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned long long>(n_seeds));
      break;
    }
    DetSimOptions options;
    options.n_pes = n_pes;
    options.seed = base_seed + i;
    options.allocator = cli.has("alloc") && !cli.get("alloc").empty()
                            ? cli.get("alloc")
                            : kSweepAllocators[i % std::size(kSweepAllocators)];
    options.n_events = n_events;
    options.faults = partree::sim::random_fault_plan(
        plan_rng, partree::sim::detsim_event_count(options), !no_corruption);
    ++stats.runs;

    DetSimReport report = partree::sim::run_detsim(options);
    switch (report.outcome) {
      case DetSimOutcome::kFaultFree:
      case DetSimOutcome::kRecovered: ++stats.recovered; break;
      case DetSimOutcome::kCancelled: ++stats.cancelled; break;
      case DetSimOutcome::kSkipped: ++stats.skipped; break;
      case DetSimOutcome::kCaught: ++stats.caught; break;
      case DetSimOutcome::kDivergence: {
        ++stats.failures;
        std::printf("FAIL divergence:\n");
        print_report(options, report);
        if (shrink) {
          options = partree::sim::shrink_failing(
              options, [](const DetSimOptions& candidate) {
                return partree::sim::run_detsim(candidate).outcome ==
                       DetSimOutcome::kDivergence;
              });
          report = partree::sim::run_detsim(options);
          std::printf("  shrunk to:\n");
          print_report(options, report);
        }
        write_repro_or_exit(repro_dir,
                            partree::sim::to_repro(options, report));
        break;
      }
    }
  }

  std::printf(
      "sweep done in %.1fs: n_pes=%llu runs=%llu recovered=%llu "
      "cancelled=%llu skipped=%llu caught=%llu failures=%llu\n",
      elapsed_s(), static_cast<unsigned long long>(n_pes),
      static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.recovered),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.skipped),
      static_cast<unsigned long long>(stats.caught),
      static_cast<unsigned long long>(stats.failures));
  return stats.failures == 0 ? 0 : 1;
}

[[nodiscard]] int run_replay(const partree::util::Cli& cli) {
  const std::string path = cli.get("replay");
  partree::sim::ReproSpec spec;
  try {
    spec = partree::sim::read_repro(read_or_exit(path));
    (void)partree::core::make_allocator(spec.allocator,
                                        partree::tree::Topology(spec.n_pes));
  } catch (const std::exception& e) {  // a malformed file or allocator spec
    std::fprintf(stderr, "detsim_runner: --replay %s: %s\n", path.c_str(),
                 e.what());
    return 2;
  }
  const DetSimOptions options = partree::sim::from_repro(spec);
  const DetSimReport report = partree::sim::run_detsim(options);
  print_report(options, report);
  // Another baseline placement is another run, whatever its outcome.
  const bool same_run =
      report.baseline_placement_digest == spec.baseline_placement_digest;
  if (!same_run) {
    std::printf(
        "  baseline placement digest %s differs from the repro's %s\n",
        partree::util::digest_hex(report.baseline_placement_digest).c_str(),
        partree::util::digest_hex(spec.baseline_placement_digest).c_str());
  }
  const bool reproduced =
      same_run &&
      partree::sim::to_repro(options, report).expect == spec.expect;
  std::printf("replay: expected %s -> %s\n", spec.expect.c_str(),
              reproduced ? "reproduced" : "NOT reproduced");
  return reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  partree::util::Cli cli;
  cli.option("seed-sweep", "seeds to sweep with random fault plans", "0",
             partree::util::Cli::Kind::kU64)
      .option("seed", "base seed", "1", partree::util::Cli::Kind::kU64)
      .option("alloc", "allocator spec (sweep default: rotate)", "")
      .option("n-pes", "machine size (power of two)", "64",
              partree::util::Cli::Kind::kPow2)
      .option("events",
              "workload length for --one and --seed-sweep; 0 = seed-derived",
              "0", partree::util::Cli::Kind::kU64)
      .option("faults", "explicit fault plan for --one", "")
      .option("replay", "repro file to re-run", "")
      .option("repro-dir", "where repro files land", "detsim_repros")
      .option("budget-seconds", "stop the sweep after this long; 0 = off",
              "0", partree::util::Cli::Kind::kDouble)
      .flag("one", "run a single faulted replay exactly as specified")
      .flag("shrink", "minimise failing configurations before writing repros")
      .flag("no-corruption", "exclude corrupt:* kinds from random plans");
  if (!cli.parse(argc, argv)) return 2;
  const std::string alloc = cli.get("alloc");
  const partree::tree::Topology topo(cli.get_u64("n-pes"));
  if (!alloc.empty() && !partree::util::check_option("alloc", [&] {
        (void)partree::core::make_allocator(alloc, topo);
      })) {
    return 2;
  }
  FaultPlan faults;
  if (!partree::util::check_option("faults", [&] {
        faults = FaultPlan::parse(cli.get("faults"));
      })) {
    return 2;
  }

  if (cli.get_flag("one")) {
    DetSimOptions options;
    options.n_pes = cli.get_u64("n-pes");
    options.allocator = alloc.empty() ? "basic" : alloc;
    options.seed = cli.get_u64("seed");
    options.n_events = cli.get_u64("events");
    options.faults = faults;
    return run_one(options);
  }
  if (!cli.get("replay").empty()) return run_replay(cli);
  if (cli.get_u64("seed-sweep") > 0) return run_seed_sweep(cli);

  std::fputs(cli.usage(argv[0]).c_str(), stderr);
  std::fputs("\none of --seed-sweep, --replay, or --one is required\n",
             stderr);
  return 2;
}
