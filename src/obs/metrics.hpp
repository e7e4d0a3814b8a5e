// Run metrics: the one instrumentation registry for the hot layers.
//
// Every histogram answers both "how many" (its count and sum) and "how
// bad does it get" (its distribution). Instrumented code records into
// log2-bucketed histograms (durations and sizes), plus process-wide
// high-watermark gauges, all sharded per thread on the shard_registry.hpp
// pattern so the hot paths never synchronise. Every cell is a relaxed
// atomic written by exactly one thread, so a snapshot taken WHILE other
// threads record (the partition service's client and apply threads) is
// race-free (merely fuzzy), with no need to wait for quiescence. Per-run
// totals that the code already keeps (events, arrivals, rounds, moves)
// live on sim::SimResult, not here.
//
// Two switches, the process's only obs switches:
//
//   * `set_metrics_enabled` (default ON) gates everything: value
//     histograms, gauges, and pre-measured duration records. The enabled
//     cost per record is a branch plus a handful of thread-local relaxed
//     stores. The bench harness reports it as metrics_overhead_pct on the
//     E2 greedy sweep, reported, not gated (aim < 1%; twelve full runs on
//     a shared 4-core VM read a median of 1.29% [q1 0.43, q3 3.09]).
//   * `set_duration_metrics_enabled` (default OFF) additionally lets
//     obs/timing.hpp's `ScopedTimer` read the monotonic clock, populating
//     the duration histograms. Two clock reads per timed scope are
//     measurable on small events, so it is opt-in
//     (`bench_harness --metrics`).
//
// Snapshots aggregate retired + live shards into plain structs, exported
// as a canonical "partree-metrics-v1" JSON document; docs/OBSERVABILITY.md
// keeps one table row per metric, checked against the registry by
// MetricsTest.DocMetricTableMatchesTheRegistry.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace partree::obs {

/// Duration histograms (nanoseconds). The timed scopes are populated by
/// obs/timing.hpp's ScopedTimer; the rest are direct record_duration
/// calls, made where the caller already holds a measurement (e.g. a
/// request's queue wait, from the admission timestamp) or times only
/// part of a scope (an applied round inside `reallocate_ns`).
enum class DurationMetric : std::size_t {
  /// Engine (timed scope): one arrival fully handled (placement + any
  /// reallocation + slowdown bookkeeping).
  kArrivalHandleNs = 0,
  /// Engine (timed scope): one departure fully handled.
  kDepartureHandleNs,
  /// core::apply_event (timed scope): the allocator's placement decision
  /// plus its application to the machine state, per arrival.
  kPlaceNs,
  /// core::apply_event (timed scope): the reallocation decision plus any
  /// migration it applies, per arrival -- a no-op decision included.
  kReallocateNs,
  /// core::apply_event (timed scope): one departure (allocator
  /// notification + state removal).
  kDepartureNs,
  /// Engine (timed scope): per-event bookkeeping after the step (peak
  /// load, series, digests, debug checks).
  kBookkeepingNs,
  /// core::apply_event: one APPLIED reallocation round (decision +
  /// migration).
  kReallocRoundNs,
  /// core::apply_event: the allocator's planning half of one applied round
  /// (maybe_reallocate only, before any migration is applied). Recorded
  /// only when a plan was actually produced, so realloc_round_ns minus
  /// this is the application half.
  kReallocPlanNs,
  /// Serve: one request's wait in the partition-service queue, from
  /// admission to its epoch batch being dequeued.
  kServeQueueWaitNs,
  /// Serve (timed scope): one request applied through the allocator by
  /// the service apply thread (placement or removal + any triggered
  /// reallocation).
  kServeApplyNs,
  kCount,
};

/// Size/count histograms (dimensionless). Always recorded while metrics
/// are enabled -- no clock involved.
enum class ValueMetric : std::size_t {
  /// core::apply_event: tasks moved per applied round (the plan's
  /// length, which lists only movers). One sample per round, a zero-move
  /// round included, so count = rounds and sum = moves.
  kMigrationsApplied = 0,
  /// tree::LoadTree::min_load_node: nodes visited per query. The count is
  /// the number of queries; sum / count << N means the pruning works.
  kMinLoadNodeVisits,
  /// Serve: requests per applied epoch batch.
  kServeBatchRequests,
  kCount,
};

/// High-watermark gauges: merged by max, reported as one value.
enum class GaugeMetric : std::size_t {
  /// Serve: most requests queued in the partition service.
  kServeQueueDepthHwm = 0,
  kCount,
};

inline constexpr std::size_t kNumDurationMetrics =
    static_cast<std::size_t>(DurationMetric::kCount);
inline constexpr std::size_t kNumValueMetrics =
    static_cast<std::size_t>(ValueMetric::kCount);
inline constexpr std::size_t kNumGaugeMetrics =
    static_cast<std::size_t>(GaugeMetric::kCount);

/// Stable snake_case names used in the JSON document.
[[nodiscard]] std::string_view duration_metric_name(DurationMetric m) noexcept;
[[nodiscard]] std::string_view value_metric_name(ValueMetric m) noexcept;
[[nodiscard]] std::string_view gauge_metric_name(GaugeMetric m) noexcept;

/// Log2 bucket layout: bucket 0 holds the value 0; bucket b in [1, 64]
/// holds values v with bit_width(v) == b, i.e. v in [2^(b-1), 2^b - 1].
inline constexpr std::size_t kLog2Buckets = 65;

/// Inclusive upper bound of bucket `b` (0, 1, 3, 7, ..., 2^64 - 1).
[[nodiscard]] constexpr std::uint64_t log2_bucket_upper(
    std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

/// Aggregated view of one histogram (plain data; no atomics).
struct MetricHistogram {
  std::array<std::uint64_t, kLog2Buckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< smallest recorded value; 0 when empty
  std::uint64_t max = 0;  ///< largest recorded value; 0 when empty

  /// Smallest bucket upper bound covering at least q * count
  /// observations, clamped to [min, max] so estimates never leave the
  /// observed range. q = 0 returns min (the smallest populated value,
  /// never an empty leading bucket); q = 1 returns max. 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A full point-in-time aggregate of the registry.
struct MetricsSnapshot {
  std::array<MetricHistogram, kNumDurationMetrics> durations{};
  std::array<MetricHistogram, kNumValueMetrics> values{};
  std::array<std::uint64_t, kNumGaugeMetrics> gauges{};

  [[nodiscard]] const MetricHistogram& duration(DurationMetric m) const {
    return durations[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] const MetricHistogram& value(ValueMetric m) const {
    return values[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::uint64_t gauge(GaugeMetric m) const {
    return gauges[static_cast<std::size_t>(m)];
  }
};

/// Master switch (default ON): gates every record_* call and gauge_max.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

namespace detail {
/// The duration switch, written only by set_duration_metrics_enabled. In
/// the header so every timed scope's check inlines.
inline std::atomic<bool> g_duration_metrics_enabled{false};
}  // namespace detail

/// Duration-timer switch (default OFF): lets ScopedTimer read the clock
/// and record. record_duration itself only needs the master switch --
/// callers that already measured (a queue wait) record for free.
void set_duration_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] inline bool duration_metrics_enabled() noexcept {
  return detail::g_duration_metrics_enabled.load(std::memory_order_relaxed);
}

/// Records `ns` into a duration histogram (master switch gated).
void record_duration(DurationMetric m, std::uint64_t ns) noexcept;

/// Records `value` into a size/count histogram (master switch gated).
void record_value(ValueMetric m, std::uint64_t value) noexcept;

/// Raises a high-watermark gauge to at least `value` (master switch
/// gated). Watermarks merge by max across shards.
void gauge_max(GaugeMetric m, std::uint64_t value) noexcept;

/// Aggregate over all shards, retired + live. Safe to call while other
/// threads record (each cell is a single-writer relaxed atomic): the
/// result is a consistent-enough snapshot, exact at quiescent points.
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Zeroes all shards. Quiescent points only (a concurrent writer's
/// in-flight record may survive the reset).
void reset_metrics();

/// Canonical "partree-metrics-v1" JSON document: every histogram keyed by
/// name with count/sum/min/max/mean and p50/p90/p99, buckets as
/// [bucket_index, count] pairs (nonzero only), plus the gauges.
[[nodiscard]] util::json::Value metrics_to_json(const MetricsSnapshot& snap);

/// Validates a parsed partree-metrics-v1 document: schema tag, every
/// metric present, bucket totals consistent with counts, min <= max.
/// Returns "" when valid, else a message naming the violation.
[[nodiscard]] std::string validate_metrics_json(const util::json::Value& v);

/// Reads the file at `path`, parses it and validates it as above, so a
/// writer can check what it wrote. Returns "" when valid, else a message
/// naming the unreadable file, the parse error or the violation.
[[nodiscard]] std::string validate_metrics_file(const std::string& path);

}  // namespace partree::obs
