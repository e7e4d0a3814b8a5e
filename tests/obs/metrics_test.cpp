// Tests for the run-metrics registry (obs/metrics.hpp): bucket layout,
// quantile behavior at the extremes, the two switches, cross-shard
// aggregation across threads, snapshot-while-recording (the TSan
// target), the pinned JSON export, schema validation, engine
// integration, and docs/OBSERVABILITY.md's metric table.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "obs/timing.hpp"
#include "sim/engine.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace partree::obs {
namespace {

// Each test zeroes the registry and restores the default switch state, so
// recordings from other code paths in this process never leak in.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    set_duration_metrics_enabled(false);
    reset_metrics();
  }
  void TearDown() override {
    set_metrics_enabled(true);
    set_duration_metrics_enabled(false);
    reset_metrics();
  }
};

TEST_F(MetricsTest, Log2BucketUpperBounds) {
  EXPECT_EQ(log2_bucket_upper(0), 0u);
  EXPECT_EQ(log2_bucket_upper(1), 1u);
  EXPECT_EQ(log2_bucket_upper(2), 3u);
  EXPECT_EQ(log2_bucket_upper(10), 1023u);
  EXPECT_EQ(log2_bucket_upper(64), ~std::uint64_t{0});
}

TEST_F(MetricsTest, RecordPlacesValuesInLog2Buckets) {
  for (const std::uint64_t v : {0u, 1u, 2u, 3u, 1024u}) {
    record_value(ValueMetric::kMigrationsApplied, v);
  }
  const MetricsSnapshot snap = snapshot_metrics();
  const MetricHistogram& h = snap.value(ValueMetric::kMigrationsApplied);
  EXPECT_EQ(h.buckets[0], 1u);  // value 0
  EXPECT_EQ(h.buckets[1], 1u);  // value 1
  EXPECT_EQ(h.buckets[2], 2u);  // values 2, 3
  EXPECT_EQ(h.buckets[11], 1u);  // 1024 = 2^10, bit_width 11
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 1030u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
}

// q = 0 / q = 1 must report the tracked extremes, never an empty leading
// bucket's upper bound (the util::Histogram analogue of this bug is
// covered in histogram_test.cpp).
TEST_F(MetricsTest, QuantileExtremesWithEmptyLeadingBuckets) {
  record_value(ValueMetric::kServeBatchRequests, 9);
  record_value(ValueMetric::kServeBatchRequests, 12);
  record_value(ValueMetric::kServeBatchRequests, 20);
  const MetricsSnapshot snap = snapshot_metrics();
  const MetricHistogram& h = snap.value(ValueMetric::kServeBatchRequests);
  EXPECT_EQ(h.buckets[0], 0u);
  EXPECT_EQ(h.quantile(0.0), 9u);
  EXPECT_EQ(h.quantile(1.0), 20u);
  // Interior quantiles stay inside the observed range despite bucket
  // upper bounds above max.
  EXPECT_GE(h.quantile(0.5), 9u);
  EXPECT_LE(h.quantile(0.5), 20u);
}

TEST_F(MetricsTest, EmptyHistogramQuantileIsZero) {
  const MetricsSnapshot snap = snapshot_metrics();
  const MetricHistogram& h = snap.value(ValueMetric::kServeBatchRequests);
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST_F(MetricsTest, MasterSwitchGatesEverything) {
  set_metrics_enabled(false);
  record_value(ValueMetric::kMigrationsApplied, 5);
  record_duration(DurationMetric::kServeQueueWaitNs, 100);
  gauge_max(GaugeMetric::kServeQueueDepthHwm, 77);
  const MetricsSnapshot off = snapshot_metrics();
  EXPECT_EQ(off.value(ValueMetric::kMigrationsApplied).count, 0u);
  EXPECT_EQ(off.duration(DurationMetric::kServeQueueWaitNs).count, 0u);
  EXPECT_EQ(off.gauge(GaugeMetric::kServeQueueDepthHwm), 0u);

  set_metrics_enabled(true);
  record_value(ValueMetric::kMigrationsApplied, 5);
  gauge_max(GaugeMetric::kServeQueueDepthHwm, 77);
  const MetricsSnapshot on = snapshot_metrics();
  EXPECT_EQ(on.value(ValueMetric::kMigrationsApplied).count, 1u);
  EXPECT_EQ(on.gauge(GaugeMetric::kServeQueueDepthHwm), 77u);
}

TEST_F(MetricsTest, DurationSwitchGatesTimersButNotDirectRecords) {
  {
    const ScopedTimer t(DurationMetric::kReallocRoundNs);
  }
  EXPECT_EQ(snapshot_metrics().duration(DurationMetric::kReallocRoundNs).count,
            0u);

  // Pre-measured durations only need the master switch (the service
  // records a request's queue wait this way).
  record_duration(DurationMetric::kServeQueueWaitNs, 1234);
  EXPECT_EQ(
      snapshot_metrics().duration(DurationMetric::kServeQueueWaitNs).count,
      1u);

  set_duration_metrics_enabled(true);
  {
    const ScopedTimer t(DurationMetric::kReallocRoundNs);
  }
  set_duration_metrics_enabled(false);
  EXPECT_EQ(snapshot_metrics().duration(DurationMetric::kReallocRoundNs).count,
            1u);
}

TEST_F(MetricsTest, GaugeMergesByMaxAcrossThreads) {
  gauge_max(GaugeMetric::kServeQueueDepthHwm, 10);
  gauge_max(GaugeMetric::kServeQueueDepthHwm, 4);  // lower: no effect
  std::thread other(
      [] { gauge_max(GaugeMetric::kServeQueueDepthHwm, 25); });
  other.join();
  EXPECT_EQ(snapshot_metrics().gauge(GaugeMetric::kServeQueueDepthHwm),
            25u);
}

// The TSan target: writers hammer one histogram while the main thread
// snapshots mid-flight. Every cell is a single-writer relaxed atomic, so
// this must be race-free; after the join the aggregate is exact.
TEST_F(MetricsTest, SnapshotWhileRecordingIsRaceFreeAndExactAfterJoin) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        record_value(ValueMetric::kServeBatchRequests, i & 1023);
      }
    });
  }
  std::uint64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = snapshot_metrics();
    const std::uint64_t seen =
        snap.value(ValueMetric::kServeBatchRequests).count;
    EXPECT_GE(seen, last_seen);  // counts only grow
    EXPECT_LE(seen, kThreads * kPerThread);
    last_seen = seen;
  }
  for (std::thread& w : writers) w.join();
  // Writer threads exited, their shards retired into the accumulator.
  EXPECT_EQ(snapshot_metrics().value(ValueMetric::kServeBatchRequests).count,
            kThreads * kPerThread);
}

// Golden pins: the exported document is a public contract (bench_harness
// and serve_loadgen write it and read it back), so the exact text is
// asserted, not just its shape. Records are made on this thread only.
TEST_F(MetricsTest, GoldenJsonDocument) {
  record_value(ValueMetric::kMigrationsApplied, 0);
  record_value(ValueMetric::kMigrationsApplied, 3);
  record_value(ValueMetric::kMigrationsApplied, 5);
  const util::json::Value doc = metrics_to_json(snapshot_metrics());

  EXPECT_EQ(doc.at("schema").as_string(), "partree-metrics-v1");
  const std::string expected =
      "{\n"
      "  \"buckets\": [\n"
      "    [\n"
      "      0,\n"
      "      1\n"
      "    ],\n"
      "    [\n"
      "      2,\n"
      "      1\n"
      "    ],\n"
      "    [\n"
      "      3,\n"
      "      1\n"
      "    ]\n"
      "  ],\n"
      "  \"count\": 3,\n"
      "  \"max\": 5,\n"
      "  \"mean\": 2.66666667,\n"
      "  \"min\": 0,\n"
      "  \"p50\": 3,\n"
      "  \"p90\": 5,\n"
      "  \"p99\": 5,\n"
      "  \"sum\": 8\n"
      "}";
  EXPECT_EQ(doc.at("values").at("migrations_applied").dump(), expected);

  // Every duration histogram, by name: the timed scopes' spans carry
  // these names too.
  std::vector<std::string> durations;
  for (const auto& [name, histogram] : doc.at("durations").as_object()) {
    durations.push_back(name);
  }
  EXPECT_EQ(durations, (std::vector<std::string>{
                           "arrival_handle_ns",
                           "bookkeeping_ns",
                           "departure_handle_ns",
                           "departure_ns",
                           "place_ns",
                           "realloc_plan_ns",
                           "realloc_round_ns",
                           "reallocate_ns",
                           "serve_apply_ns",
                           "serve_queue_wait_ns",
                       }));

  // The full document round-trips and validates.
  const util::json::Value reparsed = util::json::parse(doc.dump());
  EXPECT_EQ(validate_metrics_json(reparsed), "");
}

// A round that moves nothing is still a round: it adds a zero sample, so
// the count stays the round count while the sum stays the move count.
TEST_F(MetricsTest, GoldenJsonZeroMoveRoundIsASample) {
  // One round that moves 4 tasks, one zero-move round.
  record_value(ValueMetric::kMigrationsApplied, 4);
  record_value(ValueMetric::kMigrationsApplied, 0);
  const util::json::Value doc = metrics_to_json(snapshot_metrics());

  const std::string applied =
      "{\n"
      "  \"buckets\": [\n"
      "    [\n"
      "      0,\n"
      "      1\n"
      "    ],\n"
      "    [\n"
      "      3,\n"
      "      1\n"
      "    ]\n"
      "  ],\n"
      "  \"count\": 2,\n"
      "  \"max\": 4,\n"
      "  \"mean\": 2,\n"
      "  \"min\": 0,\n"
      "  \"p50\": 0,\n"
      "  \"p90\": 4,\n"
      "  \"p99\": 4,\n"
      "  \"sum\": 4\n"
      "}";
  EXPECT_EQ(doc.at("values").at("migrations_applied").dump(), applied);

  const util::json::Value reparsed = util::json::parse(doc.dump());
  EXPECT_EQ(validate_metrics_json(reparsed), "");
}

TEST_F(MetricsTest, ValidateCatchesTampering) {
  record_value(ValueMetric::kServeBatchRequests, 42);
  util::json::Value doc = metrics_to_json(snapshot_metrics());
  EXPECT_EQ(validate_metrics_json(doc), "");

  util::json::Value broken = doc;
  broken.as_object().at("values")
      .as_object().at("serve_batch_requests")
      .as_object().at("count") = util::json::Value(std::uint64_t{99});
  EXPECT_NE(validate_metrics_json(broken).find("do not sum"),
            std::string::npos);

  util::json::Value wrong_schema = doc;
  wrong_schema.as_object().at("schema") = util::json::Value("bogus-v0");
  EXPECT_NE(validate_metrics_json(wrong_schema).find("unknown schema"),
            std::string::npos);
}

// What bench_harness and serve_loadgen run on the file they just wrote.
TEST_F(MetricsTest, ValidateMetricsFileReadsBackWhatWasWritten) {
  const std::string path = ::testing::TempDir() + "metrics_test.json";
  record_value(ValueMetric::kServeBatchRequests, 7);
  ASSERT_TRUE(util::write_file_atomic(
      path, metrics_to_json(snapshot_metrics()).dump() + "\n"));
  EXPECT_EQ(validate_metrics_file(path), "");

  ASSERT_TRUE(util::write_file_atomic(path, "{\"schema\": "));
  EXPECT_NE(validate_metrics_file(path).find("metrics json"),
            std::string::npos);
  std::remove(path.c_str());
  EXPECT_NE(validate_metrics_file(path).find("cannot read"),
            std::string::npos);
}

TEST_F(MetricsTest, EngineRecordsHandlingDurations) {
  core::TaskSequence seq;
  for (std::uint64_t id = 1; id <= 6; ++id) seq.arrive_as(id, 1);
  for (std::uint64_t id = 1; id <= 3; ++id) seq.depart(id);

  set_duration_metrics_enabled(true);
  const tree::Topology topo(8);
  sim::Engine engine(topo);
  auto greedy = core::make_allocator("greedy", topo);
  (void)engine.run(seq, *greedy);
  set_duration_metrics_enabled(false);

  const MetricsSnapshot snap = snapshot_metrics();
  EXPECT_EQ(snap.duration(DurationMetric::kArrivalHandleNs).count, 6u);
  EXPECT_EQ(snap.duration(DurationMetric::kDepartureHandleNs).count, 3u);
  // Greedy never reallocates, so no round was timed and no moves recorded.
  EXPECT_EQ(snap.duration(DurationMetric::kReallocRoundNs).count, 0u);
  EXPECT_EQ(snap.value(ValueMetric::kMigrationsApplied).count, 0u);
}

// docs/OBSERVABILITY.md's metric table against the code: every name the
// partree-metrics-v1 document carries has a row, and every row names a
// live metric.
TEST_F(MetricsTest, DocMetricTableMatchesTheRegistry) {
  const std::optional<std::string> doc =
      util::read_file(PARTREE_DOCS_DIR "/OBSERVABILITY.md");
  ASSERT_TRUE(doc.has_value());
  const std::size_t table = doc->find("| metric | kind | recorded by |");
  ASSERT_NE(table, std::string::npos);

  // Every `name` in the first cell of each row, up to the table's end.
  std::set<std::string> documented;
  std::istringstream lines(doc->substr(table));
  std::string line;
  std::getline(lines, line);  // the header
  std::getline(lines, line);  // the separator
  while (std::getline(lines, line) && line.starts_with("|")) {
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    std::size_t open = cell.find('`');
    while (open != std::string::npos) {
      const std::size_t close = cell.find('`', open + 1);
      ASSERT_NE(close, std::string::npos) << line;
      documented.insert(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }

  std::set<std::string> emitted;
  const util::json::Value json = metrics_to_json(snapshot_metrics());
  for (const char* section : {"durations", "values", "gauges"}) {
    for (const auto& entry : json.at(section).as_object()) {
      emitted.insert(entry.first);
    }
  }
  for (const std::string& name : emitted) {
    EXPECT_EQ(documented.count(name), 1u) << name << " has no row";
  }
  for (const std::string& name : documented) {
    EXPECT_EQ(emitted.count(name), 1u) << name << " is not a metric";
  }
}

}  // namespace
}  // namespace partree::obs
