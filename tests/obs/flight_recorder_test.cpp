#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/event_source.hpp"
#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "tree/load_tree.hpp"
#include "util/json.hpp"

namespace partree::obs {
namespace {

// Emits `n_arrivals` unit arrivals and, right before handing out the last
// one, corrupts the LoadTree's raw add-counts behind the engine's back.
// EngineOptions::debug_checks then trips on that final event, so the crash
// dump's flight record must end exactly at the last arrival.
class CorruptingSource final : public core::EventSource {
 public:
  explicit CorruptingSource(std::uint64_t n_arrivals)
      : n_arrivals_(n_arrivals) {}

  [[nodiscard]] std::optional<core::Event> next(
      const core::MachineState& state) override {
    if (emitted_ >= n_arrivals_) return std::nullopt;
    ++emitted_;
    if (emitted_ == n_arrivals_) {
      // The engine owns the state; EventSource::next is the one seam a
      // test can reach it through, hence the const_cast onto the
      // documented TEST-ONLY corruption hook.
      auto& loads = const_cast<tree::LoadTree&>(state.loads());
      loads.debug_corrupt_add(tree::NodeId{state.n_pes()}, 1000);
    }
    return core::Event::arrival(emitted_, 1);
  }

 private:
  std::uint64_t n_arrivals_;
  std::uint64_t emitted_ = 0;
};

constexpr std::uint64_t kArrivalCount = kFlightRecorderEvents + 72;

// Empty dump_path exercises the default path selection (PARTREE_CRASH_DIR
// or the working directory).
void run_until_crash(const std::string& dump_path = "") {
  set_crash_dump_path(dump_path);
  const tree::Topology topo(8);
  sim::EngineOptions options;
  options.debug_checks = true;
  sim::Engine engine(topo, options);
  auto greedy = core::make_allocator("greedy", topo);
  CorruptingSource source(kArrivalCount);
  (void)engine.run_interactive(source, *greedy);
}

TEST(FlightRecorderDeathTest, CrashDumpHoldsLastKEventsInOrder) {
  const std::string dump_path =
      ::testing::TempDir() + "flight_recorder_test.crash.json";
  std::remove(dump_path.c_str());

  EXPECT_DEATH(run_until_crash(dump_path),
               "debug check: LoadTree max_load != max over pe_loads");

  // The child wrote the dump before aborting; pick it apart here.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in) << "crash dump was not written to " << dump_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const util::json::Value dump = util::json::parse(buf.str());

  EXPECT_EQ(dump.at("schema").as_string(), "partree-crash-v1");
  EXPECT_NE(dump.at("reason").as_string().find("debug check"),
            std::string::npos);

  // More engine events happened than the recorder keeps, so the record is
  // full: exactly K events, consecutive, all arrivals, ending at the very
  // arrival whose processing tripped the check.
  const util::json::Array& flight = dump.at("flight_record").as_array();
  ASSERT_EQ(flight.size(), kFlightRecorderEvents);
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_value = 0;
  for (std::size_t i = 0; i < flight.size(); ++i) {
    const util::json::Value& ev = flight[i];
    EXPECT_EQ(ev.at("kind").as_string(), "instant");
    EXPECT_EQ(ev.at("name").as_string(), "arrival");
    // Untraced instants carry no timestamp: the flight recorder never
    // reads the clock on the hot path.
    EXPECT_EQ(ev.at("ts_ns").as_u64(), 0u);
    const std::uint64_t seq = ev.at("seq").as_u64();
    const std::uint64_t value = ev.at("args").at("value").as_u64();
    if (i > 0) {
      EXPECT_EQ(seq, prev_seq + 1);
      EXPECT_EQ(value, prev_value + 1);
    }
    prev_seq = seq;
    prev_value = value;
  }
  EXPECT_EQ(prev_value, kArrivalCount);  // task ids are 1-based

  // The metrics snapshot rode along: greedy ran one min_load_node query
  // per arrival before the check tripped.
  const util::json::Value& metrics = dump.at("metrics");
  EXPECT_EQ(validate_metrics_json(metrics), "");
  EXPECT_GE(metrics.at("values").at("min_load_node_visits").at("count")
                .as_u64(),
            kArrivalCount);
  EXPECT_EQ(dump.find("counters"), nullptr);
  EXPECT_EQ(dump.find("phase_times"), nullptr);
}

// The entries of `dir`; empty when it does not exist.
std::set<std::filesystem::path> entries_of(const std::string& dir) {
  std::set<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    out.insert(entry.path());
  }
  return out;
}

// Default-path behavior: with no set_crash_dump_path override, the dump
// lands in $PARTREE_CRASH_DIR (created on demand) as
// partree_crash_<ts>_<pid>.json -- not in whatever directory the process
// happens to be running in -- and the atomic tmp + rename write leaves no
// .tmp residue next to it. Two processes crashing within the same second
// leave two dumps: the pid keeps them from replacing each other.
TEST(FlightRecorderDeathTest, DefaultDumpHonorsCrashDirEnv) {
  const std::string dir =
      ::testing::TempDir() + "flight_recorder_test.crash_dir";
  // Each threadsafe-style death-test child re-runs this body up to its own
  // EXPECT_DEATH, so nothing is deleted up front (the second child would
  // delete the first one's dump): only entries new after both crashes
  // count.
  const std::set<std::filesystem::path> before = entries_of(dir);

  for (int child = 0; child < 2; ++child) {
    EXPECT_DEATH(
        {
          ::setenv("PARTREE_CRASH_DIR", dir.c_str(), 1);
          run_until_crash();  // no override: default path selection
        },
        "debug check: LoadTree max_load != max over pe_loads");
  }

  std::vector<std::filesystem::path> dumps;
  std::vector<std::filesystem::path> residue;
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "crash dir was not created";
  for (const std::filesystem::path& path : entries_of(dir)) {
    if (before.count(path) != 0) continue;
    const std::string name = path.filename().string();
    if (name.starts_with("partree_crash_") && name.ends_with(".json")) {
      dumps.push_back(path);
    } else {
      residue.push_back(path);
    }
  }
  ASSERT_EQ(dumps.size(), 2u) << "expected one crash dump per child in "
                              << dir;
  EXPECT_TRUE(residue.empty())
      << "unexpected file next to the dump (tmp residue?): "
      << residue.front();

  // Each dump is complete, parseable JSON (the atomic write's contract).
  for (const std::filesystem::path& path : dumps) {
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::stringstream buf;
    buf << in.rdbuf();
    const util::json::Value dump = util::json::parse(buf.str());
    EXPECT_EQ(dump.at("schema").as_string(), "partree-crash-v1");
    EXPECT_EQ(dump.at("flight_record").as_array().size(),
              kFlightRecorderEvents);
  }

  std::filesystem::remove_all(dir);
}

// Spins until `arrived` reaches `n`, so the items of one parallel region
// provably run on distinct pool workers at the same time. Gives up after
// a generous deadline so a broken pool fails an expectation, not the
// ctest timeout.
void rendezvous(std::atomic<int>& arrived, int n) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (arrived.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// Unit tasks that arrive and depart in turn until `stop` is raised (or a
// cap is hit, so a missing dumper cannot hang the test). Raises `started`
// once the engine has applied its first event.
class UntilStoppedSource final : public core::EventSource {
 public:
  static constexpr std::uint64_t kCap = std::uint64_t{1} << 22;

  UntilStoppedSource(std::atomic<bool>& started, const std::atomic<bool>& stop)
      : started_(started), stop_(stop) {}

  [[nodiscard]] std::optional<core::Event> next(
      const core::MachineState&) override {
    if (emitted_ == 1) started_.store(true);
    const bool arrival = emitted_ % 2 == 0;
    if (arrival && (stop_.load() || emitted_ >= kCap)) return std::nullopt;
    const core::TaskId id = emitted_ / 2 + 1;
    ++emitted_;
    return arrival ? core::Event::arrival(id, 1) : core::Event::departure(id);
  }

 private:
  std::atomic<bool>& started_;
  const std::atomic<bool>& stop_;
  std::uint64_t emitted_ = 0;
};

// A crash dump taken while another thread is mid-run must read the live
// instrumentation without racing it (the TSan build runs this), and still
// produce a complete partree-crash-v1 document. The dumper waits until the
// engine thread has applied an event, so the dump reads a shard and a
// trace ring that the engine thread is writing.
TEST(FlightRecorderTest, DumpWhileAnotherWorkerRunsTheEngine) {
  const tree::Topology topo(16);
  const std::string dump_path =
      ::testing::TempDir() + "flight_recorder_test.race.json";
  std::remove(dump_path.c_str());
  set_crash_dump_path(dump_path);
  std::atomic<int> arrived{0};
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::string written;
  std::uint64_t engine_events = 0;
  std::thread dumper([&] {
    rendezvous(arrived, 2);
    while (!started.load()) std::this_thread::yield();
    written = write_crash_dump("dump while another worker records");
    stop.store(true);
  });
  std::thread engine([&] {
    rendezvous(arrived, 2);
    UntilStoppedSource source(started, stop);
    auto greedy = core::make_allocator("greedy", topo);
    const sim::SimResult r =
        sim::Engine(topo).run_interactive(source, *greedy);
    engine_events = r.events;
  });
  dumper.join();
  engine.join();
  set_crash_dump_path("");

  ASSERT_EQ(written, dump_path);
  // The engine stopped because the dump finished, not at the cap: the two
  // really overlapped.
  EXPECT_LT(engine_events, UntilStoppedSource::kCap);
  std::ifstream in(dump_path);
  ASSERT_TRUE(in);
  std::stringstream buf;
  buf << in.rdbuf();
  const util::json::Value dump = util::json::parse(buf.str());
  EXPECT_EQ(dump.at("schema").as_string(), "partree-crash-v1");
  EXPECT_EQ(validate_metrics_json(dump.at("metrics")), "");
  EXPECT_GT(dump.at("metrics").at("values").at("min_load_node_visits")
                .at("count").as_u64(),
            0u);
  std::remove(dump_path.c_str());
}

TEST(FlightRecorderTest, ThreadFlightRecordIsBoundedAndOrdered) {
  for (std::uint64_t i = 0; i < kFlightRecorderEvents + 10; ++i) {
    emit_instant(Instant::kArrival, i);
  }
  const std::vector<TraceEvent> record = thread_flight_record();
  ASSERT_EQ(record.size(), kFlightRecorderEvents);
  for (std::size_t i = 1; i < record.size(); ++i) {
    EXPECT_EQ(record[i].seq, record[i - 1].seq + 1);
  }
  EXPECT_EQ(record.back().a, kFlightRecorderEvents + 9);
}

}  // namespace
}  // namespace partree::obs
