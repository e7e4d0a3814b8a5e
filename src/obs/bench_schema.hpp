// The machine-readable benchmark report ("partree-bench-v1").
//
// bench_harness produces a BenchReport, serialized as BENCH_<date>.json;
// bench_diff reads two of them and flags median-wall-time regressions
// beyond a tolerance. The schema lives here (not in the binaries) so tests
// can exercise round-tripping and the regression rule directly, and so a
// future CI step can consume the same structs.
//
// JSON layout:
//   { "schema": "partree-bench-v1",
//     "date": "YYYY-MM-DD", "git_sha": "...", "n_threads": K,
//     "smoke": false,
//     "suites": [ { "name": "...", "n": 1024, "reps": 5,
//                   "wall_ms": [..], "median_ms": m, "p90_ms": p,
//                   "mean_ms": a, "min_ms": lo,
//                   "trace_overhead_pct": y,    // only the overhead suites
//                   "metrics_overhead_pct": z
//                 }, ... ] }
//
// Unknown keys are ignored on read, so reports from older harnesses (which
// carried per-suite "counters" and "counter_overhead_pct") still parse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace partree::obs {

struct BenchSuite {
  std::string name;
  std::uint64_t n = 0;       ///< problem size (PEs) the suite ran at
  std::uint64_t reps = 0;    ///< measured repetitions (excludes warmup)
  std::vector<double> wall_ms;  ///< per-rep wall time, measurement order
  double median_ms = 0.0;
  double p90_ms = 0.0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  /// What the tracing subsystem costs while DISABLED, percent: default
  /// runs (always-on flight-recorder store) vs bare runs with the
  /// recorder switched off. < 0 when the suite did not measure it. The
  /// recorded wall times of the measuring suite are the default runs.
  double trace_overhead_pct = -1.0;
  /// What the metrics registry costs on its DEFAULT path (master switch
  /// on, duration timers off), percent, vs bare runs with the master
  /// switch off. < 0 when the suite did not measure it. The recorded wall
  /// times of the measuring suite are the default runs.
  double metrics_overhead_pct = -1.0;

  /// Fills median/p90/mean/min from wall_ms.
  void finalize_stats();
};

struct BenchReport {
  std::string schema = "partree-bench-v1";
  std::string date;     ///< ISO date of the run
  std::string git_sha;  ///< short sha, or "unknown"
  std::uint64_t n_threads = 0;
  bool smoke = false;  ///< reduced sizes/reps; not baseline-comparable
  std::vector<BenchSuite> suites;

  [[nodiscard]] const BenchSuite* find_suite(std::string_view name) const;
};

[[nodiscard]] util::json::Value to_json(const BenchReport& report);

/// Throws std::runtime_error on schema mismatch or malformed fields. Every
/// wall-time field (wall_ms entries, median/p90/mean/min) must be a finite
/// number; a NaN/string/absent time throws an error naming the suite and
/// field, so a damaged baseline fails the gate loudly instead of poisoning
/// every comparison it feeds.
[[nodiscard]] BenchReport report_from_json(const util::json::Value& v);

/// Suite-name difference for diagnostics: `removed` = present in baseline
/// but gone from current (these also surface as regressions), `added` =
/// present only in current (new suites; informational -- they have no
/// baseline to regress against). Both keep their report's suite order.
struct SuiteDiff {
  std::vector<std::string> removed;
  std::vector<std::string> added;
};
[[nodiscard]] SuiteDiff diff_suite_names(const BenchReport& baseline,
                                         const BenchReport& current);

/// One suite whose median wall time regressed (or disappeared).
struct Regression {
  std::string suite;
  double baseline_ms = 0.0;
  /// < 0 when the suite is missing from the current report.
  double current_ms = -1.0;
  /// current / baseline (0 when missing).
  double ratio = 0.0;
};

struct CompareOptions {
  /// Flag when current > baseline * (1 + tolerance).
  double tolerance = 0.15;
  /// Suites with baseline medians below this are pure noise; skipped.
  double min_baseline_ms = 0.01;
};

/// Regressions of `current` against `baseline` (suites matched by name;
/// suites only in `current` are improvements-by-definition and ignored).
[[nodiscard]] std::vector<Regression> compare_reports(
    const BenchReport& baseline, const BenchReport& current,
    const CompareOptions& options = {});

}  // namespace partree::obs
