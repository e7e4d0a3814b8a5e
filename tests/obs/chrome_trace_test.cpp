#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/factory.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "sim/pool.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree::obs {
namespace {

// A fixed-seed E2-style run: greedy over a closed-loop workload on N=64.
// Everything below derives from this one deterministic trace.
sim::SimResult run_traced(TraceSink* sink) {
  const tree::Topology topo(64);
  util::Rng rng(12345);
  workload::ClosedLoopParams params;
  params.n_events = 600;
  params.utilization = 0.75;
  params.size = workload::SizeSpec::uniform_log(0, topo.height());
  const auto seq = workload::closed_loop(topo, params, rng);

  sim::EngineOptions options;
  options.trace = sink;
  sim::Engine engine(topo, options);
  auto greedy = core::make_allocator("greedy", topo);
  return engine.run(seq, *greedy);
}

TEST(ChromeTraceTest, CountingSinkMatchesEngineCounters) {
  CountingTraceSink sink;
  const sim::SimResult r = run_traced(&sink);
  ASSERT_GT(r.events, 100u);

  // Run fully drained at disarm: every emit reached the sink, none dropped.
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.instants(Instant::kArrival), r.arrivals);
  EXPECT_EQ(sink.instants(Instant::kDeparture), r.departures);
  EXPECT_EQ(sink.instants(Instant::kReallocRound), r.reallocation_count);
  // One migrate() per elected reallocation.
  EXPECT_EQ(sink.instants(Instant::kMigrationBatch), r.reallocation_count);

  // Timed spans: arrival_handle, place and reallocate bracket each
  // arrival, departure_handle and departure each departure, bookkeeping
  // each event.
  EXPECT_EQ(sink.spans(DurationMetric::kArrivalHandleNs), r.arrivals);
  EXPECT_EQ(sink.spans(DurationMetric::kPlaceNs), r.arrivals);
  EXPECT_EQ(sink.spans(DurationMetric::kReallocateNs), r.arrivals);
  EXPECT_EQ(sink.spans(DurationMetric::kDepartureHandleNs), r.departures);
  EXPECT_EQ(sink.spans(DurationMetric::kDepartureNs), r.departures);
  EXPECT_EQ(sink.spans(DurationMetric::kBookkeepingNs), r.events);

  EXPECT_EQ(sink.counter_samples(), r.events / sim::kTraceSampleEvery);
}

TEST(ChromeTraceTest, UntracedRunEmitsNothingToSinks) {
  CountingTraceSink sink;
  (void)run_traced(nullptr);
  EXPECT_FALSE(tracing_enabled());
  EXPECT_EQ(sink.total(), 0u);
}

TEST(ChromeTraceTest, DocumentIsValidChromeTraceJson) {
  ChromeTraceSink sink;
  const sim::SimResult r = run_traced(&sink);

  // Sink accessors agree with the run before we even parse.
  EXPECT_EQ(sink.dropped_events(), 0u);
  EXPECT_EQ(sink.span_count(DurationMetric::kPlaceNs), r.arrivals);
  EXPECT_EQ(sink.instant_count(Instant::kArrival), r.arrivals);
  EXPECT_EQ(sink.counter_samples(), r.events / sim::kTraceSampleEvery);

  const util::json::Value doc = util::json::parse(sink.document());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const util::json::Array& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::uint64_t x_place = 0;
  std::uint64_t i_arrival = 0;
  std::set<std::string> meta_names;
  std::set<std::string> counter_tracks;
  std::set<std::string> span_names;
  for (const util::json::Value& ev : events) {
    const std::string ph = ev.at("ph").as_string();
    const std::string name = ev.at("name").as_string();
    if (ph == "M") {
      meta_names.insert(name);
      continue;
    }
    // Every non-metadata event sits on a concrete thread track with a
    // numeric timestamp.
    EXPECT_GE(ev.at("ts").as_double(), 0.0);
    (void)ev.at("tid").as_u64();
    if (ph == "X") {
      span_names.insert(name);
      EXPECT_GE(ev.at("dur").as_double(), 0.0);
      EXPECT_EQ(ev.at("cat").as_string(), "phase");
      if (name == "place_ns") ++x_place;
    } else if (ph == "i") {
      EXPECT_EQ(ev.at("cat").as_string(), "engine");
      if (name == "arrival") ++i_arrival;
    } else if (ph == "C") {
      counter_tracks.insert(name);
      EXPECT_NE(ev.at("args").find(name), nullptr);
    } else {
      ADD_FAILURE() << "unexpected ph '" << ph << "'";
    }
  }

  // One process-name + one thread-name record (single-threaded run).
  EXPECT_TRUE(meta_names.count("process_name"));
  EXPECT_TRUE(meta_names.count("thread_name"));

  // The expected span tracks and counter series are all present.
  EXPECT_TRUE(span_names.count("arrival_handle_ns"));
  EXPECT_TRUE(span_names.count("departure_handle_ns"));
  EXPECT_TRUE(span_names.count("place_ns"));
  EXPECT_TRUE(span_names.count("reallocate_ns"));
  EXPECT_TRUE(span_names.count("departure_ns"));
  EXPECT_TRUE(span_names.count("bookkeeping_ns"));
  EXPECT_TRUE(counter_tracks.count("max_load"));
  EXPECT_TRUE(counter_tracks.count("l_star"));
  EXPECT_TRUE(counter_tracks.count("active_size"));
  EXPECT_TRUE(counter_tracks.count("active_tasks"));

  // Span/instant counts in the serialized JSON match the run's counts.
  EXPECT_EQ(x_place, r.arrivals);
  EXPECT_EQ(i_arrival, r.arrivals);
}

TEST(ChromeTraceTest, WriteFileRoundTrips) {
  ChromeTraceSink sink;
  (void)run_traced(&sink);
  const std::string path =
      ::testing::TempDir() + "chrome_trace_test.trace.json";
  ASSERT_TRUE(sink.write_file(path));

  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::stringstream buf;
  buf << in.rdbuf();
  const util::json::Value doc = util::json::parse(buf.str());
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
}

// Persistent pool workers keep one stable trace ring (and so one timeline
// track) each across back-to-back parallel regions: three regions on a
// 2-worker pool must yield exactly two worker tracks plus the caller's
// region track, not a fresh pair of tracks per region.
TEST(ChromeTraceTest, BackToBackParallelRegionsKeepOneTrackPerPoolThread) {
  sim::WorkerPool& pool = sim::WorkerPool::instance();
  pool.shutdown();  // fresh worker set so track counting is exact

  ChromeTraceSink sink;
  set_trace_sink(&sink);
  constexpr int kRegions = 3;
  for (int round = 0; round < kRegions; ++round) {
    sim::parallel_for(64, [](std::size_t) {}, 2);
  }
  set_trace_sink(nullptr);  // flushes the live per-thread rings

  EXPECT_EQ(sink.dropped_events(), 0u);
  EXPECT_EQ(sink.span_count(DurationMetric::kPoolRegionNs),
            static_cast<std::uint64_t>(kRegions));
  // One worker span per worker per region.
  EXPECT_EQ(sink.span_count(DurationMetric::kPoolWorkerBusyNs),
            static_cast<std::uint64_t>(2 * kRegions));

  const util::json::Value doc = util::json::parse(sink.document());
  std::set<std::uint64_t> worker_tids;
  std::set<std::uint64_t> region_tids;
  for (const util::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "X") continue;
    const std::string name = ev.at("name").as_string();
    if (name == "pool_worker_busy_ns") {
      worker_tids.insert(ev.at("tid").as_u64());
    } else if (name == "pool_region_ns") {
      region_tids.insert(ev.at("tid").as_u64());
    }
  }
  EXPECT_EQ(worker_tids.size(), 2u);
  EXPECT_EQ(region_tids.size(), 1u);

  pool.shutdown();
}

TEST(ChromeTraceTest, TracedRunsAreRepeatable) {
  ChromeTraceSink a;
  ChromeTraceSink b;
  const sim::SimResult first = run_traced(&a);
  const sim::SimResult second = run_traced(&b);
  EXPECT_EQ(first.max_load, second.max_load);
  EXPECT_EQ(a.span_count(DurationMetric::kPlaceNs),
            b.span_count(DurationMetric::kPlaceNs));
  EXPECT_EQ(a.instant_count(Instant::kArrival),
            b.instant_count(Instant::kArrival));
  EXPECT_EQ(a.counter_samples(), b.counter_samples());
}

}  // namespace
}  // namespace partree::obs
