#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <optional>

#include "obs/shard_registry.hpp"
#include "util/file.hpp"

namespace partree::obs {
namespace {

constexpr std::uint64_t kNoMin = std::numeric_limits<std::uint64_t>::max();

std::atomic<bool> g_metrics_enabled{true};

// Every cell is written by exactly one thread (its shard owner), so
// updates are relaxed load+store pairs -- no lock-prefixed RMW on the hot
// path -- while concurrent snapshot reads from another thread stay
// race-free (TSan-clean).
void add_relaxed(std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void max_relaxed(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  if (v > cell.load(std::memory_order_relaxed)) {
    cell.store(v, std::memory_order_relaxed);
  }
}

void min_relaxed(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  if (v < cell.load(std::memory_order_relaxed)) {
    cell.store(v, std::memory_order_relaxed);
  }
}

// The count is not a cell of its own but the bucket total, so even a
// snapshot taken while the owner records is self-consistent (what
// validate_metrics_json checks); at quiescent points nothing changes.
struct AtomicHistogram {
  std::array<std::atomic<std::uint64_t>, kLog2Buckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{kNoMin};
  std::atomic<std::uint64_t> max{0};

  void record(std::uint64_t v) noexcept {
    const std::size_t b =
        v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
    add_relaxed(buckets[b], 1);
    add_relaxed(sum, v);
    min_relaxed(min, v);
    max_relaxed(max, v);
  }

  void copy_from(const AtomicHistogram& o) noexcept {
    for (std::size_t b = 0; b < kLog2Buckets; ++b) {
      buckets[b].store(o.buckets[b].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    }
    sum.store(o.sum.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    min.store(o.min.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
    max.store(o.max.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  }

  void merge_from(const AtomicHistogram& o) noexcept {
    for (std::size_t b = 0; b < kLog2Buckets; ++b) {
      add_relaxed(buckets[b], o.buckets[b].load(std::memory_order_relaxed));
    }
    add_relaxed(sum, o.sum.load(std::memory_order_relaxed));
    min_relaxed(min, o.min.load(std::memory_order_relaxed));
    max_relaxed(max, o.max.load(std::memory_order_relaxed));
  }

  [[nodiscard]] MetricHistogram snapshot() const {
    MetricHistogram out;
    for (std::size_t b = 0; b < kLog2Buckets; ++b) {
      out.buckets[b] = buckets[b].load(std::memory_order_relaxed);
      out.count += out.buckets[b];
    }
    out.sum = sum.load(std::memory_order_relaxed);
    if (out.count == 0) return out;
    const std::uint64_t lo = min.load(std::memory_order_relaxed);
    out.min = lo == kNoMin ? 0 : lo;
    // A record in flight may have set min but not yet max.
    out.max = std::max(max.load(std::memory_order_relaxed), out.min);
    return out;
  }
};

/// The per-thread shard; satisfies ShardRegistry's contract (zero default,
/// merge, copy assignment) with explicitly-relaxed copies since atomics
/// are not copyable by default.
struct MetricsShard {
  std::array<AtomicHistogram, kNumDurationMetrics> durations{};
  std::array<AtomicHistogram, kNumValueMetrics> values{};
  std::array<std::atomic<std::uint64_t>, kNumGaugeMetrics> gauges{};

  MetricsShard() = default;
  MetricsShard(const MetricsShard& o) { *this = o; }
  MetricsShard& operator=(const MetricsShard& o) {
    if (this == &o) return *this;
    for (std::size_t i = 0; i < kNumDurationMetrics; ++i) {
      durations[i].copy_from(o.durations[i]);
    }
    for (std::size_t i = 0; i < kNumValueMetrics; ++i) {
      values[i].copy_from(o.values[i]);
    }
    for (std::size_t i = 0; i < kNumGaugeMetrics; ++i) {
      gauges[i].store(o.gauges[i].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    }
    return *this;
  }

  void merge(const MetricsShard& o) noexcept {
    for (std::size_t i = 0; i < kNumDurationMetrics; ++i) {
      durations[i].merge_from(o.durations[i]);
    }
    for (std::size_t i = 0; i < kNumValueMetrics; ++i) {
      values[i].merge_from(o.values[i]);
    }
    for (std::size_t i = 0; i < kNumGaugeMetrics; ++i) {
      max_relaxed(gauges[i], o.gauges[i].load(std::memory_order_relaxed));
    }
  }
};

// Leaked on purpose: a thread that exits while static destruction runs
// (one joined by a static object's destructor, such as a service's apply
// thread) still retires its shard into the registry.
detail::ShardRegistry<MetricsShard>& registry() {
  static auto* r = new detail::ShardRegistry<MetricsShard>();
  return *r;
}

// JSON names, in enum order.
constexpr std::string_view kDurationNames[kNumDurationMetrics] = {
    "arrival_handle_ns",
    "departure_handle_ns",
    "place_ns",
    "reallocate_ns",
    "departure_ns",
    "bookkeeping_ns",
    "realloc_round_ns",
    "realloc_plan_ns",
    "serve_queue_wait_ns",
    "serve_apply_ns",
};

constexpr std::string_view kValueNames[kNumValueMetrics] = {
    "migrations_applied",
    "min_load_node_visits",
    "serve_batch_requests",
};

constexpr std::string_view kGaugeNames[kNumGaugeMetrics] = {
    "serve_queue_depth_hwm",
};

util::json::Value histogram_to_json(const MetricHistogram& h) {
  util::json::Object obj;
  obj.emplace("count", h.count);
  obj.emplace("sum", h.sum);
  obj.emplace("min", h.min);
  obj.emplace("max", h.max);
  obj.emplace("mean", h.mean());
  obj.emplace("p50", h.quantile(0.5));
  obj.emplace("p90", h.quantile(0.9));
  obj.emplace("p99", h.quantile(0.99));
  util::json::Array buckets;
  for (std::size_t b = 0; b < kLog2Buckets; ++b) {
    if (h.buckets[b] == 0) continue;
    util::json::Array pair;
    pair.emplace_back(static_cast<std::uint64_t>(b));
    pair.emplace_back(h.buckets[b]);
    buckets.emplace_back(std::move(pair));
  }
  obj.emplace("buckets", std::move(buckets));
  return util::json::Value(std::move(obj));
}

/// Shared histogram checks for validate_metrics_json; "" when valid.
std::string check_histogram_json(const util::json::Value& section,
                                 std::string_view name) {
  const util::json::Value* entry = section.find(name);
  if (entry == nullptr) {
    return "metrics json: missing histogram '" + std::string(name) + "'";
  }
  const std::uint64_t count = entry->at("count").as_u64();
  const std::uint64_t min = entry->at("min").as_u64();
  const std::uint64_t max = entry->at("max").as_u64();
  for (const std::string_view q : {"sum", "p50", "p90", "p99"}) {
    (void)entry->at(q).as_u64();
  }
  if (min > max) {
    return "metrics json: histogram '" + std::string(name) + "' has min > max";
  }
  std::uint64_t bucket_total = 0;
  for (const util::json::Value& pair : entry->at("buckets").as_array()) {
    const util::json::Array& arr = pair.as_array();
    if (arr.size() != 2) {
      return "metrics json: histogram '" + std::string(name) +
             "' has a malformed bucket pair";
    }
    if (arr[0].as_u64() >= kLog2Buckets) {
      return "metrics json: histogram '" + std::string(name) +
             "' has a bucket index out of range";
    }
    bucket_total += arr[1].as_u64();
  }
  if (bucket_total != count) {
    return "metrics json: histogram '" + std::string(name) +
           "' bucket counts do not sum to count";
  }
  return "";
}

}  // namespace

std::string_view duration_metric_name(DurationMetric m) noexcept {
  const auto i = static_cast<std::size_t>(m);
  return i < kNumDurationMetrics ? kDurationNames[i] : "unknown";
}

std::string_view value_metric_name(ValueMetric m) noexcept {
  const auto i = static_cast<std::size_t>(m);
  return i < kNumValueMetrics ? kValueNames[i] : "unknown";
}

std::string_view gauge_metric_name(GaugeMetric m) noexcept {
  const auto i = static_cast<std::size_t>(m);
  return i < kNumGaugeMetrics ? kGaugeNames[i] : "unknown";
}

std::uint64_t MetricHistogram::quantile(double q) const noexcept {
  if (count == 0) return 0;
  // The extremes are tracked exactly; bucket upper bounds would only
  // blur them (and q = 0 must never report an empty leading bucket).
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double scaled = q * static_cast<double>(count) + 0.5;
  // Clamped to >= 1 so q = 0 walks to the first POPULATED bucket instead
  // of matching an empty bucket 0 at cumulative 0.
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(scaled), 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kLog2Buckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= target) {
      return std::clamp(log2_bucket_upper(b), min, max);
    }
  }
  return max;
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_duration_metrics_enabled(bool enabled) noexcept {
  detail::g_duration_metrics_enabled.store(enabled,
                                           std::memory_order_relaxed);
}

void record_duration(DurationMetric m, std::uint64_t ns) noexcept {
  if (!metrics_enabled()) return;
  registry().local().durations[static_cast<std::size_t>(m)].record(ns);
}

void record_value(ValueMetric m, std::uint64_t value) noexcept {
  if (!metrics_enabled()) return;
  registry().local().values[static_cast<std::size_t>(m)].record(value);
}

void gauge_max(GaugeMetric m, std::uint64_t value) noexcept {
  if (!metrics_enabled()) return;
  max_relaxed(registry().local().gauges[static_cast<std::size_t>(m)], value);
}

MetricsSnapshot snapshot_metrics() {
  const MetricsShard merged = registry().aggregate();
  MetricsSnapshot out;
  for (std::size_t i = 0; i < kNumDurationMetrics; ++i) {
    out.durations[i] = merged.durations[i].snapshot();
  }
  for (std::size_t i = 0; i < kNumValueMetrics; ++i) {
    out.values[i] = merged.values[i].snapshot();
  }
  for (std::size_t i = 0; i < kNumGaugeMetrics; ++i) {
    out.gauges[i] = merged.gauges[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset_metrics() { registry().reset(); }

util::json::Value metrics_to_json(const MetricsSnapshot& snap) {
  util::json::Object durations;
  for (std::size_t i = 0; i < kNumDurationMetrics; ++i) {
    durations.emplace(std::string(kDurationNames[i]),
                      histogram_to_json(snap.durations[i]));
  }
  util::json::Object values;
  for (std::size_t i = 0; i < kNumValueMetrics; ++i) {
    values.emplace(std::string(kValueNames[i]),
                   histogram_to_json(snap.values[i]));
  }
  util::json::Object gauges;
  for (std::size_t i = 0; i < kNumGaugeMetrics; ++i) {
    gauges.emplace(std::string(kGaugeNames[i]), snap.gauges[i]);
  }
  util::json::Object root;
  root.emplace("schema", "partree-metrics-v1");
  root.emplace("durations", std::move(durations));
  root.emplace("values", std::move(values));
  root.emplace("gauges", std::move(gauges));
  return util::json::Value(std::move(root));
}

std::string validate_metrics_json(const util::json::Value& v) {
  try {
    const std::string& schema = v.at("schema").as_string();
    if (schema != "partree-metrics-v1") {
      return "metrics json: unknown schema '" + schema + "'";
    }
    const util::json::Value& durations = v.at("durations");
    for (std::size_t i = 0; i < kNumDurationMetrics; ++i) {
      if (std::string err = check_histogram_json(durations,
                                                 kDurationNames[i]);
          !err.empty()) {
        return err;
      }
    }
    const util::json::Value& values = v.at("values");
    for (std::size_t i = 0; i < kNumValueMetrics; ++i) {
      if (std::string err = check_histogram_json(values, kValueNames[i]);
          !err.empty()) {
        return err;
      }
    }
    const util::json::Value& gauges = v.at("gauges");
    for (std::size_t i = 0; i < kNumGaugeMetrics; ++i) {
      if (gauges.find(kGaugeNames[i]) == nullptr) {
        return "metrics json: missing gauge '" +
               std::string(kGaugeNames[i]) + "'";
      }
      (void)gauges.at(kGaugeNames[i]).as_u64();
    }
  } catch (const std::exception& e) {
    return std::string("metrics json: ") + e.what();
  }
  return "";
}

std::string validate_metrics_file(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return "cannot read " + path;
  try {
    return validate_metrics_json(util::json::parse(*text));
  } catch (const std::exception& e) {
    return std::string("metrics json: ") + e.what();
  }
}

}  // namespace partree::obs
