#include "obs/bench_schema.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace partree::obs {
namespace {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// A wall-time field that is absent, non-numeric (e.g. the string "NaN"),
// or non-finite renames the generic parse error to point at the suite and
// field -- a damaged baseline must fail loudly, not poison comparisons.
double finite_ms(const util::json::Value& suite, std::string_view key,
                 const std::string& name) {
  double value = 0.0;
  try {
    value = suite.at(key).as_double();
  } catch (const std::exception& e) {
    throw std::runtime_error("bench json: suite '" + name + "' field '" +
                             std::string(key) + "': " + e.what());
  }
  if (!std::isfinite(value)) {
    throw std::runtime_error("bench json: suite '" + name + "' field '" +
                             std::string(key) + "' is not a finite number");
  }
  return value;
}

}  // namespace

void BenchSuite::finalize_stats() {
  if (wall_ms.empty()) {
    median_ms = p90_ms = mean_ms = min_ms = 0.0;
    return;
  }
  std::vector<double> sorted = wall_ms;
  std::sort(sorted.begin(), sorted.end());
  median_ms = quantile_sorted(sorted, 0.5);
  p90_ms = quantile_sorted(sorted, 0.9);
  min_ms = sorted.front();
  double sum = 0.0;
  for (const double w : sorted) sum += w;
  mean_ms = sum / static_cast<double>(sorted.size());
}

const BenchSuite* BenchReport::find_suite(std::string_view name) const {
  for (const BenchSuite& suite : suites) {
    if (suite.name == name) return &suite;
  }
  return nullptr;
}

util::json::Value to_json(const BenchReport& report) {
  util::json::Array suites;
  for (const BenchSuite& suite : report.suites) {
    util::json::Object s;
    s.emplace("name", suite.name);
    s.emplace("n", suite.n);
    s.emplace("reps", suite.reps);
    util::json::Array walls;
    for (const double w : suite.wall_ms) walls.emplace_back(w);
    s.emplace("wall_ms", std::move(walls));
    s.emplace("median_ms", suite.median_ms);
    s.emplace("p90_ms", suite.p90_ms);
    s.emplace("mean_ms", suite.mean_ms);
    s.emplace("min_ms", suite.min_ms);
    if (suite.trace_overhead_pct >= 0.0) {
      s.emplace("trace_overhead_pct", suite.trace_overhead_pct);
    }
    if (suite.metrics_overhead_pct >= 0.0) {
      s.emplace("metrics_overhead_pct", suite.metrics_overhead_pct);
    }
    suites.emplace_back(std::move(s));
  }

  util::json::Object root;
  root.emplace("schema", report.schema);
  root.emplace("date", report.date);
  root.emplace("git_sha", report.git_sha);
  root.emplace("n_threads", report.n_threads);
  root.emplace("smoke", report.smoke);
  root.emplace("suites", std::move(suites));
  return util::json::Value(std::move(root));
}

BenchReport report_from_json(const util::json::Value& v) {
  BenchReport report;
  report.schema = v.at("schema").as_string();
  if (report.schema != "partree-bench-v1") {
    throw std::runtime_error("bench json: unknown schema '" + report.schema +
                             "'");
  }
  report.date = v.at("date").as_string();
  report.git_sha = v.at("git_sha").as_string();
  report.n_threads = v.at("n_threads").as_u64();
  if (const util::json::Value* smoke = v.find("smoke")) {
    report.smoke = smoke->as_bool();
  }
  for (const util::json::Value& s : v.at("suites").as_array()) {
    BenchSuite suite;
    suite.name = s.at("name").as_string();
    suite.n = s.at("n").as_u64();
    suite.reps = s.at("reps").as_u64();
    for (const util::json::Value& w : s.at("wall_ms").as_array()) {
      double wall = 0.0;
      try {
        wall = w.as_double();
      } catch (const std::exception& e) {
        throw std::runtime_error("bench json: suite '" + suite.name +
                                 "' field 'wall_ms': " + e.what());
      }
      if (!std::isfinite(wall)) {
        throw std::runtime_error("bench json: suite '" + suite.name +
                                 "' field 'wall_ms' has a non-finite entry");
      }
      suite.wall_ms.push_back(wall);
    }
    suite.median_ms = finite_ms(s, "median_ms", suite.name);
    suite.p90_ms = finite_ms(s, "p90_ms", suite.name);
    suite.mean_ms = finite_ms(s, "mean_ms", suite.name);
    suite.min_ms = finite_ms(s, "min_ms", suite.name);
    if (const util::json::Value* o = s.find("trace_overhead_pct")) {
      suite.trace_overhead_pct = o->as_double();
    }
    if (const util::json::Value* o = s.find("metrics_overhead_pct")) {
      suite.metrics_overhead_pct = o->as_double();
    }
    report.suites.push_back(std::move(suite));
  }
  return report;
}

SuiteDiff diff_suite_names(const BenchReport& baseline,
                           const BenchReport& current) {
  SuiteDiff diff;
  for (const BenchSuite& base : baseline.suites) {
    if (current.find_suite(base.name) == nullptr) {
      diff.removed.push_back(base.name);
    }
  }
  for (const BenchSuite& cur : current.suites) {
    if (baseline.find_suite(cur.name) == nullptr) {
      diff.added.push_back(cur.name);
    }
  }
  return diff;
}

std::vector<Regression> compare_reports(const BenchReport& baseline,
                                        const BenchReport& current,
                                        const CompareOptions& options) {
  std::vector<Regression> regressions;
  for (const BenchSuite& base : baseline.suites) {
    if (base.median_ms < options.min_baseline_ms) continue;
    const BenchSuite* cur = current.find_suite(base.name);
    if (cur == nullptr) {
      regressions.push_back({base.name, base.median_ms, -1.0, 0.0});
      continue;
    }
    const double ratio = cur->median_ms / base.median_ms;
    if (cur->median_ms > base.median_ms * (1.0 + options.tolerance)) {
      regressions.push_back({base.name, base.median_ms, cur->median_ms, ratio});
    }
  }
  return regressions;
}

}  // namespace partree::obs
