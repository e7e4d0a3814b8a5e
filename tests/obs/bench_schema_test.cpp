#include "obs/bench_schema.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace partree::obs {
namespace {

BenchReport sample_report() {
  BenchReport report;
  report.date = "2026-08-06";
  report.git_sha = "abc1234";
  report.n_threads = 4;

  BenchSuite micro;
  micro.name = "alloc_micro_ops";
  micro.n = 1024;
  micro.reps = 5;
  micro.wall_ms = {10.0, 11.0, 9.5, 10.5, 10.2};
  micro.finalize_stats();
  report.suites.push_back(micro);

  BenchSuite sweep;
  sweep.name = "greedy_sweep_e2";
  sweep.n = 1024;
  sweep.reps = 5;
  sweep.wall_ms = {100.0, 98.0, 102.0, 99.0, 101.0};
  sweep.metrics_overhead_pct = 1.25;
  sweep.finalize_stats();
  report.suites.push_back(sweep);

  BenchSuite trace;
  trace.name = "trace_overhead_greedy_sweep";
  trace.n = 1024;
  trace.reps = 5;
  trace.wall_ms = {100.0, 101.0, 99.0, 100.5, 99.5};
  trace.trace_overhead_pct = 2.5;
  trace.finalize_stats();
  report.suites.push_back(trace);
  return report;
}

TEST(BenchSchemaTest, FinalizeStatsComputesOrderStatistics) {
  BenchSuite suite;
  suite.wall_ms = {5.0, 1.0, 3.0, 2.0, 4.0};
  suite.finalize_stats();
  EXPECT_DOUBLE_EQ(suite.median_ms, 3.0);
  EXPECT_DOUBLE_EQ(suite.min_ms, 1.0);
  EXPECT_DOUBLE_EQ(suite.mean_ms, 3.0);
  EXPECT_NEAR(suite.p90_ms, 4.6, 1e-9);
}

TEST(BenchSchemaTest, JsonRoundTripPreservesEverything) {
  const BenchReport original = sample_report();
  const std::string text = to_json(original).dump();
  const BenchReport parsed =
      report_from_json(util::json::parse(text));

  EXPECT_EQ(parsed.schema, "partree-bench-v1");
  EXPECT_EQ(parsed.date, original.date);
  EXPECT_EQ(parsed.git_sha, original.git_sha);
  EXPECT_EQ(parsed.n_threads, original.n_threads);
  EXPECT_EQ(parsed.smoke, original.smoke);
  ASSERT_EQ(parsed.suites.size(), original.suites.size());
  for (std::size_t i = 0; i < parsed.suites.size(); ++i) {
    const BenchSuite& a = parsed.suites[i];
    const BenchSuite& b = original.suites[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.reps, b.reps);
    EXPECT_EQ(a.wall_ms, b.wall_ms);
    EXPECT_DOUBLE_EQ(a.median_ms, b.median_ms);
    EXPECT_DOUBLE_EQ(a.p90_ms, b.p90_ms);
    EXPECT_DOUBLE_EQ(a.metrics_overhead_pct, b.metrics_overhead_pct);
    EXPECT_DOUBLE_EQ(a.trace_overhead_pct, b.trace_overhead_pct);
  }

  // Serialization is canonical: dumping the parsed report reproduces the
  // exact bytes (sorted keys, stable number formatting).
  EXPECT_EQ(to_json(parsed).dump(), text);
}

TEST(BenchSchemaTest, IdenticalReportsAlwaysPass) {
  const BenchReport report = sample_report();
  EXPECT_TRUE(compare_reports(report, report).empty());
}

TEST(BenchSchemaTest, TwoXSlowdownIsFlagged) {
  const BenchReport baseline = sample_report();
  BenchReport slow = baseline;
  for (BenchSuite& suite : slow.suites) {
    for (double& w : suite.wall_ms) w *= 2.0;
    suite.finalize_stats();
  }
  const auto regressions = compare_reports(baseline, slow);
  ASSERT_EQ(regressions.size(), baseline.suites.size());
  for (const Regression& r : regressions) {
    EXPECT_NEAR(r.ratio, 2.0, 1e-9);
    EXPECT_GT(r.current_ms, r.baseline_ms);
  }
}

TEST(BenchSchemaTest, SlowdownWithinToleranceIsNoise) {
  const BenchReport baseline = sample_report();
  BenchReport noisy = baseline;
  for (BenchSuite& suite : noisy.suites) {
    for (double& w : suite.wall_ms) w *= 1.10;
    suite.finalize_stats();
  }
  EXPECT_TRUE(compare_reports(baseline, noisy).empty());

  // ... and just past the default 15% it is not.
  BenchReport slow = baseline;
  for (BenchSuite& suite : slow.suites) {
    for (double& w : suite.wall_ms) w *= 1.16;
    suite.finalize_stats();
  }
  EXPECT_FALSE(compare_reports(baseline, slow).empty());
}

TEST(BenchSchemaTest, MissingSuiteIsFlagged) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.suites.pop_back();
  const auto regressions = compare_reports(baseline, current);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].suite, "trace_overhead_greedy_sweep");
  EXPECT_LT(regressions[0].current_ms, 0.0);
}

TEST(BenchSchemaTest, SubNoiseFloorSuitesAreSkipped) {
  BenchReport baseline = sample_report();
  BenchSuite tiny;
  tiny.name = "noise";
  tiny.wall_ms = {0.001, 0.002};
  tiny.finalize_stats();
  baseline.suites.push_back(tiny);

  BenchReport current = baseline;
  for (double& w : current.suites.back().wall_ms) w *= 50.0;
  current.suites.back().finalize_stats();
  // A 50x blowup on a microsecond-scale suite is timer noise, not signal.
  EXPECT_TRUE(compare_reports(baseline, current).empty());
}

TEST(BenchSchemaTest, DiffSuiteNamesFindsAddedAndRemoved) {
  const BenchReport baseline = sample_report();
  BenchReport current = baseline;
  current.suites.pop_back();  // drops trace_overhead_greedy_sweep
  BenchSuite fresh;
  fresh.name = "brand_new_suite";
  fresh.wall_ms = {1.0};
  fresh.finalize_stats();
  current.suites.push_back(fresh);

  const SuiteDiff diff = diff_suite_names(baseline, current);
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], "trace_overhead_greedy_sweep");
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], "brand_new_suite");

  // The removed suite is a regression; the added one is not (nothing to
  // regress against), but it must surface in the diff, never silently.
  const auto regressions = compare_reports(baseline, current);
  ASSERT_EQ(regressions.size(), 1u);
  EXPECT_EQ(regressions[0].suite, "trace_overhead_greedy_sweep");

  const SuiteDiff none = diff_suite_names(baseline, baseline);
  EXPECT_TRUE(none.removed.empty());
  EXPECT_TRUE(none.added.empty());

  // Symmetric direction: comparing swapped reports flips the sets.
  const SuiteDiff swapped = diff_suite_names(current, baseline);
  EXPECT_EQ(swapped.removed, (std::vector<std::string>{"brand_new_suite"}));
  EXPECT_EQ(swapped.added,
            (std::vector<std::string>{"trace_overhead_greedy_sweep"}));
}

// A baseline damaged into carrying the STRING "NaN" for a time field (the
// strict JSON parser cannot produce a NaN number) must fail with an error
// naming the suite and the field.
TEST(BenchSchemaTest, StringTimeFieldIsRejectedWithContext) {
  util::json::Value v = to_json(sample_report());
  v.as_object()["suites"].as_array()[0].as_object()["median_ms"] =
      util::json::Value("NaN");
  try {
    (void)report_from_json(v);
    FAIL() << "expected report_from_json to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("alloc_micro_ops"), std::string::npos) << msg;
    EXPECT_NE(msg.find("median_ms"), std::string::npos) << msg;
  }
}

// In-memory reports can carry an actual NaN double; serialization-free
// consumers hit the finiteness check instead.
TEST(BenchSchemaTest, NonFiniteWallEntryIsRejected) {
  util::json::Value v = to_json(sample_report());
  v.as_object()["suites"]
      .as_array()[1]
      .as_object()["wall_ms"]
      .as_array()[0] =
      util::json::Value(std::numeric_limits<double>::quiet_NaN());
  try {
    (void)report_from_json(v);
    FAIL() << "expected report_from_json to throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("greedy_sweep_e2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("wall_ms"), std::string::npos) << msg;
  }
}

// A baseline whose time field holds a malformed number token fails at the
// parser with a position-bearing error -- it must never reach comparison.
TEST(BenchSchemaTest, MalformedNumberInBaselineFailsParse) {
  EXPECT_THROW((void)util::json::parse(R"({"median_ms": 12..5})"),
               std::runtime_error);
  EXPECT_THROW((void)util::json::parse(R"({"median_ms": 1e999})"),
               std::runtime_error);
}

TEST(BenchSchemaTest, UnknownSchemaIsRejected) {
  util::json::Value v = to_json(sample_report());
  v.as_object()["schema"] = util::json::Value("partree-bench-v999");
  EXPECT_THROW((void)report_from_json(v), std::runtime_error);
}

// Reports from older harnesses carry per-suite "counters" objects and a
// "counter_overhead_pct"; unknown keys are ignored, so they still parse.
TEST(BenchSchemaTest, LegacyCounterKeysAreIgnored) {
  util::json::Value v = to_json(sample_report());
  util::json::Object counters;
  counters.emplace("events_processed", std::uint64_t{250000});
  util::json::Object& suite =
      v.as_object()["suites"].as_array()[1].as_object();
  suite.emplace("counters", std::move(counters));
  suite.emplace("counter_overhead_pct", 1.25);
  EXPECT_EQ(to_json(report_from_json(v)).dump(),
            to_json(sample_report()).dump());
}

TEST(BenchSchemaTest, MissingFieldsAreRejected) {
  util::json::Value v = to_json(sample_report());
  v.as_object().erase("suites");
  EXPECT_THROW((void)report_from_json(v), std::runtime_error);
}

}  // namespace
}  // namespace partree::obs
