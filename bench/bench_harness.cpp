// What the metrics registry costs on its default path, plus the metrics
// smoke run.
//
// Re-times the E2 greedy campaign sweep (exact A_G over every named
// campaign at N = 1024) in interleaved pairs with the metrics master
// switch off and on. The overhead is the median of the per-pair ratios,
// printed beside the cost of arming the duration timers. The figure is
// reported, not gated; the repo's timing benchmark is perfbench, compared
// against a base tree by scripts/perf_ab.py.
//
//   bench_harness                      # the overhead figure
//   bench_harness --smoke              # tiny sizes, 1 rep; exercises the
//                                      # machinery (CI), not comparable
//   bench_harness --metrics m.json     # arm duration metrics for the run
//                                      # and write the final
//                                      # partree-metrics-v1 snapshot,
//                                      # read back and validated
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "sim/engine.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/campaign.hpp"

namespace partree::bench {
namespace {

struct HarnessConfig {
  std::uint64_t reps = 7;
  std::uint64_t seed = 1;
  bool smoke = false;
  /// Event-budget multiplier; --smoke drops it to a fraction.
  double scale = 1.0;
};

/// The E2 greedy campaign sweep at N = 1024: the body the overhead figure
/// re-times.
void greedy_sweep_body(const HarnessConfig& config) {
  const std::uint64_t n = config.smoke ? 128 : 1024;
  const tree::Topology topo(n);
  sim::Engine engine(topo);
  for (const std::string& campaign : workload::campaign_names()) {
    util::Rng rng(config.seed + n * 13);
    const auto seq =
        workload::make_campaign(campaign, topo, rng, 0.4 * config.scale);
    auto greedy = core::make_allocator("greedy", topo);
    const auto result = engine.run(seq, *greedy);
    PARTREE_ASSERT(result.max_load >= result.optimal_load,
                   "greedy below optimal: impossible");
  }
}

/// Wall milliseconds of one greedy sweep.
double timed_sweep(const HarnessConfig& config) {
  const std::uint64_t start_ns = obs::detail::monotonic_ns();
  greedy_sweep_body(config);
  return static_cast<double>(obs::detail::monotonic_ns() - start_ns) / 1e6;
}

// What the metrics registry costs on its DEFAULT path: master switch on,
// duration timers off, so every record (one per min_load_node query on
// greedy's path) is a branch plus a few thread-local relaxed stores and
// the clock is never read. Bare runs switch the master off and default
// runs leave it on, in interleaved pairs that alternate which runs first,
// so drift slower than one pair cancels; then `reps` armed runs add the
// duration timers (two clock reads per timed scope).
void metrics_overhead(const HarnessConfig& config) {
  const bool durations_were = obs::duration_metrics_enabled();
  const auto timed = [&](bool enabled, bool durations) {
    obs::set_metrics_enabled(enabled);
    obs::set_duration_metrics_enabled(durations);
    const double ms = timed_sweep(config);
    obs::set_metrics_enabled(true);
    obs::set_duration_metrics_enabled(durations_were);
    return ms;
  };
  for (int i = 0; i < 2; ++i) greedy_sweep_body(config);
  const std::uint64_t pairs =
      config.smoke ? config.reps : std::max<std::uint64_t>(config.reps, 15);
  std::vector<double> default_ms;
  std::vector<double> pair_ratio;
  for (std::uint64_t rep = 0; rep < pairs; ++rep) {
    double bare_ms = 0.0;
    double ms = 0.0;
    if (rep % 2 == 0) {
      bare_ms = timed(false, false);
      ms = timed(true, false);
    } else {
      ms = timed(true, false);
      bare_ms = timed(false, false);
    }
    default_ms.push_back(ms);
    if (bare_ms > 0.0) pair_ratio.push_back(ms / bare_ms);
  }
  std::vector<double> armed_ms;
  for (std::uint64_t rep = 0; rep < config.reps; ++rep) {
    armed_ms.push_back(timed(true, true));
  }

  // The median of per-pair default/bare ratios, as a percentage over
  // bare, and the armed median over the default median.
  const double default_median_ms = util::summarize(default_ms).median;
  const double pct =
      pair_ratio.empty()
          ? 0.0
          : (util::summarize(pair_ratio).median - 1.0) * 100.0;
  const double armed_pct =
      default_median_ms > 0.0
          ? (util::summarize(armed_ms).median - default_median_ms) /
                default_median_ms * 100.0
          : 0.0;
  std::printf(
      "  metrics_overhead_pct  %+6.2f   (default median %.3f ms; durations "
      "armed %+6.2f%%)\n",
      pct, default_median_ms, armed_pct);
}

// Disarm the duration timers, snapshot the metrics registry, write the
// canonical partree-metrics-v1 document atomically, and read it back:
// exits 1 naming the violation if the file does not validate.
int write_metrics_snapshot(const std::string& path) {
  obs::set_duration_metrics_enabled(false);
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  const std::string doc = obs::metrics_to_json(snap).dump();
  if (!util::write_file_atomic(path, doc + "\n")) {
    std::fprintf(stderr, "bench_harness: cannot write %s\n", path.c_str());
    return 2;
  }
  if (const std::string error = obs::validate_metrics_file(path);
      !error.empty()) {
    std::fprintf(stderr, "bench_harness: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf(
      "wrote %s (%llu arrivals timed; a valid partree-metrics-v1 "
      "snapshot)\n",
      path.c_str(),
      static_cast<unsigned long long>(
          snap.duration(obs::DurationMetric::kArrivalHandleNs).count));
  return 0;
}

}  // namespace
}  // namespace partree::bench

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("reps", "interleaved pairs (at least 15 unless --smoke) and "
                     "armed runs per figure",
             "7", util::Cli::Kind::kPositive);
  cli.option("seed", "workload RNG seed", "1", util::Cli::Kind::kU64);
  cli.flag("smoke", "tiny sizes and 1 rep: exercise, don't measure");
  cli.option("metrics",
             "arm duration metrics for the run and write the final "
             "partree-metrics-v1 snapshot here",
             "");
  if (!cli.parse(argc, argv)) return 1;

  bench::HarnessConfig config;
  config.reps = cli.get_u64("reps");
  config.seed = cli.get_u64("seed");
  if (cli.get_flag("smoke")) {
    config.smoke = true;
    config.scale = 0.05;
    config.reps = 1;
  }

  const std::string metrics_path = cli.get("metrics");
  obs::reset_metrics();
  // Duration histograms stay empty unless the timers are armed; --metrics
  // asks for a populated snapshot, so arm them for the whole run.
  if (!metrics_path.empty()) obs::set_duration_metrics_enabled(true);

  bench::banner("BENCH harness",
                "Default-path cost of metrics on the E2 greedy sweep: "
                "median of interleaved per-pair ratios, reported, not "
                "gated.");
  bench::metrics_overhead(config);

  if (!metrics_path.empty()) return bench::write_metrics_snapshot(metrics_path);
  return 0;
}
