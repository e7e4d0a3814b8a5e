#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/factory.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
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

// Each thread records into its own trace ring, and a ring's id is its
// Chrome track: two threads replaying under one armed sink must yield
// exactly two tracks of engine spans, one per thread.
TEST(ChromeTraceTest, SpansFromTwoThreadsLandOnTwoTracks) {
  const tree::Topology topo(4);
  const core::TaskSequence seq = core::figure1_sequence();
  ChromeTraceSink sink;
  set_trace_sink(&sink);
  const auto replay = [&] {
    auto greedy = core::make_allocator("greedy", topo);
    (void)sim::Engine(topo).run(seq, *greedy);
  };
  std::thread first(replay);
  std::thread second(replay);
  first.join();
  second.join();
  set_trace_sink(nullptr);

  EXPECT_EQ(sink.dropped_events(), 0u);
  std::uint64_t arrivals = 0;
  for (const core::Event& e : seq.events()) {
    if (e.kind == core::EventKind::kArrival) ++arrivals;
  }
  EXPECT_EQ(sink.span_count(DurationMetric::kPlaceNs), 2 * arrivals);

  const util::json::Value doc = util::json::parse(sink.document());
  std::set<std::uint64_t> place_tids;
  for (const util::json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "X" &&
        ev.at("name").as_string() == "place_ns") {
      place_tids.insert(ev.at("tid").as_u64());
    }
  }
  EXPECT_EQ(place_tids.size(), 2u);
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
