// Trace statistics: offline analysis of a Chrome trace-event JSON file as
// written by trace_runner --timeline or bench_harness --trace.
//
//   ./trace_stats --trace run.trace.json
//   ./trace_stats --trace run.trace.json --json stats.json
//   ./trace_stats --trace smoke.trace.json --min-utilization 0.01
//   ./trace_stats --metrics metrics.json          # schema validation only
//
// Reports per-thread utilization (interval-union busy time over the trace
// wall span, so nested/overlapping spans are not double counted), span
// duration percentiles per span name, idle-gap structure per thread, and
// inter-arrival statistics for the engine instants (arrival, departure,
// realloc_round, migration_batch). --json writes the same numbers as a
// partree-trace-stats-v1 document for downstream tooling; --min-utilization
// turns the report into a CI gate. --metrics validates a
// partree-metrics-v1 snapshot (bench_harness --metrics) instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace {

using partree::util::json::Array;
using partree::util::json::Object;
using partree::util::json::Value;

struct Span {
  double ts_us = 0.0;
  double dur_us = 0.0;
};

struct ThreadStats {
  std::vector<Span> spans;
  double busy_us = 0.0;
  double utilization = 0.0;
  std::uint64_t idle_gaps = 0;
  double max_gap_us = 0.0;
  double idle_us = 0.0;  // inside [first span start, last span end]
};

struct NameStats {
  std::vector<double> durs_us;  // sorted after load
  double total_us = 0.0;
};

struct InstantStats {
  std::vector<double> ts_us;    // sorted after load
  std::vector<double> gaps_us;  // consecutive inter-arrival deltas
};

struct TraceStats {
  std::uint64_t span_events = 0;
  std::uint64_t instant_events = 0;
  std::uint64_t counter_events = 0;
  double t_min_us = 0.0;
  double t_max_us = 0.0;
  std::map<std::uint64_t, ThreadStats> threads;
  std::map<std::string, NameStats> span_names;
  std::map<std::string, InstantStats> instants;

  [[nodiscard]] double wall_us() const {
    return t_max_us > t_min_us ? t_max_us - t_min_us : 0.0;
  }
};

// Nearest-rank percentile over a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Union length of [ts, ts+dur] intervals, plus gap structure between the
// merged segments. Spans nest (an arrival_handle span contains the place
// and reallocate spans on the engine thread), so summing durations would
// overcount -- the union is the honest busy time.
void analyze_thread(ThreadStats& t, double wall_us) {
  std::sort(t.spans.begin(), t.spans.end(),
            [](const Span& a, const Span& b) { return a.ts_us < b.ts_us; });
  double cover_begin = 0.0;
  double cover_end = -1.0;  // sentinel: no open segment yet
  for (const Span& s : t.spans) {
    const double end = s.ts_us + s.dur_us;
    if (cover_end < cover_begin) {  // first segment
      cover_begin = s.ts_us;
      cover_end = end;
      continue;
    }
    if (s.ts_us > cover_end) {
      t.busy_us += cover_end - cover_begin;
      ++t.idle_gaps;
      const double gap = s.ts_us - cover_end;
      t.idle_us += gap;
      t.max_gap_us = std::max(t.max_gap_us, gap);
      cover_begin = s.ts_us;
      cover_end = end;
    } else {
      cover_end = std::max(cover_end, end);
    }
  }
  if (cover_end >= cover_begin && !t.spans.empty()) {
    t.busy_us += cover_end - cover_begin;
  }
  t.utilization = wall_us > 0.0 ? t.busy_us / wall_us : 0.0;
}

std::optional<TraceStats> load_trace(const std::string& path,
                                     std::string& error) {
  const std::optional<std::string> text = partree::util::read_file(path);
  if (!text) {
    error = "cannot read " + path;
    return std::nullopt;
  }
  Value doc;
  try {
    doc = partree::util::json::parse(*text);
  } catch (const std::exception& e) {
    error = path + ": " + e.what();
    return std::nullopt;
  }
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    error = path + ": no traceEvents array (not a Chrome trace?)";
    return std::nullopt;
  }

  TraceStats stats;
  bool have_time = false;
  for (const Value& ev : events->as_array()) {
    if (!ev.is_object()) continue;
    const Value* ph = ev.find("ph");
    const Value* ts = ev.find("ts");
    if (ph == nullptr || !ph->is_string()) continue;
    const std::string& kind = ph->as_string();
    if (kind == "M") continue;  // metadata: no timestamp
    if (ts == nullptr || !ts->is_number()) continue;
    const double ts_us = ts->as_double();
    double end_us = ts_us;

    if (kind == "X") {
      const Value* dur = ev.find("dur");
      const Value* tid = ev.find("tid");
      const Value* name = ev.find("name");
      if (dur == nullptr || tid == nullptr || name == nullptr) continue;
      const double dur_us = dur->as_double();
      end_us = ts_us + dur_us;
      ++stats.span_events;
      stats.threads[tid->as_u64()].spans.push_back({ts_us, dur_us});
      NameStats& ns = stats.span_names[name->as_string()];
      ns.durs_us.push_back(dur_us);
      ns.total_us += dur_us;
    } else if (kind == "i" || kind == "I") {
      const Value* name = ev.find("name");
      if (name == nullptr) continue;
      ++stats.instant_events;
      stats.instants[name->as_string()].ts_us.push_back(ts_us);
    } else if (kind == "C") {
      ++stats.counter_events;
    } else {
      continue;
    }

    if (!have_time) {
      stats.t_min_us = ts_us;
      stats.t_max_us = end_us;
      have_time = true;
    } else {
      stats.t_min_us = std::min(stats.t_min_us, ts_us);
      stats.t_max_us = std::max(stats.t_max_us, end_us);
    }
  }

  const double wall = stats.wall_us();
  for (auto& [tid, t] : stats.threads) analyze_thread(t, wall);
  for (auto& [name, ns] : stats.span_names) {
    std::sort(ns.durs_us.begin(), ns.durs_us.end());
  }
  for (auto& [name, is] : stats.instants) {
    std::sort(is.ts_us.begin(), is.ts_us.end());
    for (std::size_t i = 1; i < is.ts_us.size(); ++i) {
      is.gaps_us.push_back(is.ts_us[i] - is.ts_us[i - 1]);
    }
    std::sort(is.gaps_us.begin(), is.gaps_us.end());
  }
  return stats;
}

Value stats_to_json(const TraceStats& stats, const std::string& path) {
  Object root;
  root.emplace("schema", "partree-trace-stats-v1");
  root.emplace("trace", path);
  root.emplace("wall_us", stats.wall_us());
  root.emplace("span_events", stats.span_events);
  root.emplace("instant_events", stats.instant_events);
  root.emplace("counter_events", stats.counter_events);

  Array threads;
  for (const auto& [tid, t] : stats.threads) {
    Object row;
    row.emplace("tid", tid);
    row.emplace("spans", static_cast<std::uint64_t>(t.spans.size()));
    row.emplace("busy_us", t.busy_us);
    row.emplace("utilization", t.utilization);
    row.emplace("idle_gaps", t.idle_gaps);
    row.emplace("idle_us", t.idle_us);
    row.emplace("max_gap_us", t.max_gap_us);
    threads.emplace_back(std::move(row));
  }
  root.emplace("threads", std::move(threads));

  Object spans;
  for (const auto& [name, ns] : stats.span_names) {
    Object row;
    row.emplace("count", static_cast<std::uint64_t>(ns.durs_us.size()));
    row.emplace("total_us", ns.total_us);
    row.emplace("p50_us", percentile(ns.durs_us, 0.50));
    row.emplace("p90_us", percentile(ns.durs_us, 0.90));
    row.emplace("p99_us", percentile(ns.durs_us, 0.99));
    row.emplace("max_us", ns.durs_us.empty() ? 0.0 : ns.durs_us.back());
    spans.emplace(name, std::move(row));
  }
  root.emplace("spans", std::move(spans));

  Object instants;
  for (const auto& [name, is] : stats.instants) {
    Object row;
    row.emplace("count", static_cast<std::uint64_t>(is.ts_us.size()));
    row.emplace("inter_p50_us", percentile(is.gaps_us, 0.50));
    row.emplace("inter_p99_us", percentile(is.gaps_us, 0.99));
    row.emplace("inter_max_us",
                is.gaps_us.empty() ? 0.0 : is.gaps_us.back());
    instants.emplace(name, std::move(row));
  }
  root.emplace("instants", std::move(instants));
  return Value(std::move(root));
}

void print_report(const TraceStats& stats, const std::string& path) {
  const double wall = stats.wall_us();
  std::printf("trace %s: %llu spans, %llu instants, %llu counter samples\n",
              path.c_str(),
              static_cast<unsigned long long>(stats.span_events),
              static_cast<unsigned long long>(stats.instant_events),
              static_cast<unsigned long long>(stats.counter_events));
  std::printf("wall time: %.3f ms\n", wall / 1000.0);

  std::printf("\nper-thread utilization (interval-union busy / wall):\n");
  for (const auto& [tid, t] : stats.threads) {
    std::printf(
        "  tid %llu: busy %10.3f ms  util %6.2f%%  spans %6zu  "
        "idle gaps %4llu (max %.3f ms)\n",
        static_cast<unsigned long long>(tid), t.busy_us / 1000.0,
        t.utilization * 100.0, t.spans.size(),
        static_cast<unsigned long long>(t.idle_gaps),
        t.max_gap_us / 1000.0);
  }

  std::printf("\nspan durations (us):\n");
  for (const auto& [name, ns] : stats.span_names) {
    std::printf(
        "  %-18s count %8zu  p50 %10.3f  p90 %10.3f  p99 %10.3f  "
        "max %10.3f  total %12.3f\n",
        name.c_str(), ns.durs_us.size(), percentile(ns.durs_us, 0.50),
        percentile(ns.durs_us, 0.90), percentile(ns.durs_us, 0.99),
        ns.durs_us.empty() ? 0.0 : ns.durs_us.back(), ns.total_us);
  }

  if (!stats.instants.empty()) {
    std::printf("\ninstant inter-arrival (us):\n");
    for (const auto& [name, is] : stats.instants) {
      std::printf(
          "  %-18s count %8zu  p50 %10.3f  p99 %10.3f  max %10.3f\n",
          name.c_str(), is.ts_us.size(), percentile(is.gaps_us, 0.50),
          percentile(is.gaps_us, 0.99),
          is.gaps_us.empty() ? 0.0 : is.gaps_us.back());
    }
  }
}

// Sanity: union busy time can never exceed the trace wall span; a
// violation means the interval math (or the producer's timestamps) is
// broken, and downstream utilization numbers cannot be trusted.
bool check_consistency(const TraceStats& stats) {
  const double wall = stats.wall_us();
  const double slack = wall * 1e-9 + 1e-6;
  for (const auto& [tid, t] : stats.threads) {
    if (t.busy_us > wall + slack) {
      std::fprintf(stderr,
                   "trace_stats: tid %llu busy %.3f us exceeds wall %.3f us\n",
                   static_cast<unsigned long long>(tid), t.busy_us, wall);
      return false;
    }
  }
  return true;
}

int validate_metrics_file(const std::string& path) {
  const std::optional<std::string> text = partree::util::read_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  Value doc;
  try {
    doc = partree::util::json::parse(*text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::string error = partree::obs::validate_metrics_json(doc);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: valid partree-metrics-v1 snapshot\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  partree::util::Cli cli;
  cli.option("trace", "Chrome trace JSON to analyze (bench_harness --trace "
                      "/ trace_runner --timeline output)", "")
      .option("metrics", "validate this partree-metrics-v1 JSON snapshot "
                         "(bench_harness --metrics output) and exit", "")
      .option("json", "also write a partree-trace-stats-v1 document here",
              "")
      .option("min-utilization",
              "exit nonzero unless at least one thread's utilization "
              "reaches this fraction (CI gate)",
              std::nullopt, partree::util::Cli::Kind::kDouble);
  if (!cli.parse(argc, argv)) return 1;

  const std::string metrics_path = cli.get("metrics");
  const std::string trace_path = cli.get("trace");
  if (metrics_path.empty() == trace_path.empty()) {
    std::fprintf(stderr,
                 "need exactly one of --trace <file> / --metrics <file>\n");
    return 1;
  }
  if (!metrics_path.empty()) return validate_metrics_file(metrics_path);

  std::string error;
  const std::optional<TraceStats> stats = load_trace(trace_path, error);
  if (!stats) {
    std::fprintf(stderr, "trace_stats: %s\n", error.c_str());
    return 1;
  }

  print_report(*stats, trace_path);
  if (!check_consistency(*stats)) return 1;

  if (const std::string out = cli.get("json"); !out.empty()) {
    const std::string doc = stats_to_json(*stats, trace_path).dump();
    if (!partree::util::write_file_atomic(out, doc + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out.c_str());
  }

  if (cli.has("min-utilization")) {
    const double min_util = cli.get_double("min-utilization");
    double best = 0.0;
    for (const auto& [tid, t] : stats->threads) {
      best = std::max(best, t.utilization);
    }
    if (stats->threads.empty() || best < min_util) {
      std::fprintf(stderr,
                   "trace_stats: best per-thread utilization %.6f below "
                   "required %.6f\n",
                   best, min_util);
      return 1;
    }
    std::printf("utilization gate passed: best %.4f >= %.4f\n", best,
                min_util);
  }
  return 0;
}
