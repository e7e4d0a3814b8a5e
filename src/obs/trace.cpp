#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <mutex>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace partree::obs {
namespace {

static_assert(kFlightRecorderEvents <= kTraceRingCapacity,
              "flight record must fit in the ring");
static_assert((kTraceRingCapacity & (kTraceRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

struct Ring {
  std::uint64_t tid = 0;
  std::vector<TraceEvent> slots;  // kTraceRingCapacity once registered
  std::uint64_t next = 0;         // events ever written on this thread
  std::uint64_t drained = 0;      // events already handed to a sink
};

// Leaked on purpose: rings flush on thread exit, which may happen after
// static destruction begins.
struct Registry {
  std::mutex mutex;
  std::vector<Ring*> rings;
  std::uint64_t next_tid = 0;
  TraceSink* sink = nullptr;  // guarded by mutex
};

Registry& registry() {
  static auto* r = new Registry();
  return *r;
}

// Flight-recorder kill switch; off only while bench_harness prices the
// default store against a bare run.
std::atomic<bool> g_recording{true};

// Hands [max(drained, next - capacity), next) to the sink and advances
// `drained`. Caller holds the registry mutex.
void flush_locked(Registry& reg, Ring& ring) {
  if (reg.sink == nullptr) {
    ring.drained = ring.next;
    return;
  }
  const std::uint64_t floor =
      ring.next > kTraceRingCapacity ? ring.next - kTraceRingCapacity : 0;
  const std::uint64_t from = ring.drained > floor ? ring.drained : floor;
  if (from == ring.next && from == ring.drained) return;
  ThreadTrace chunk;
  chunk.tid = ring.tid;
  chunk.dropped = from - ring.drained;
  chunk.events.reserve(static_cast<std::size_t>(ring.next - from));
  for (std::uint64_t s = from; s < ring.next; ++s) {
    chunk.events.push_back(ring.slots[s & (kTraceRingCapacity - 1)]);
  }
  ring.drained = ring.next;
  reg.sink->consume(chunk);
}

// Thread-local ring handle: registers on first event, flushes + retires on
// thread exit (thread joins therefore lose nothing while a sink is armed).
struct RingHandle {
  Ring ring;

  RingHandle() {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    ring.tid = reg.next_tid++;
    ring.slots.resize(kTraceRingCapacity);
    reg.rings.push_back(&ring);
  }
  ~RingHandle() {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    flush_locked(reg, ring);
    std::erase(reg.rings, &ring);
  }
  RingHandle(const RingHandle&) = delete;
  RingHandle& operator=(const RingHandle&) = delete;
};

Ring& local_ring() {
  static thread_local RingHandle handle;
  return handle.ring;
}

// The single producer-side write: one slot store plus an index bump. While
// a sink is armed the ring flushes itself just before it would wrap.
void push_event(TraceEvent ev) noexcept {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  Ring& ring = local_ring();
  ev.seq = ring.next;
  ring.slots[ring.next & (kTraceRingCapacity - 1)] = ev;
  ++ring.next;
  if (tracing_enabled() && ring.next - ring.drained >= kTraceRingCapacity) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    flush_locked(reg, ring);
  }
}

util::json::Value event_to_json(const TraceEvent& ev) {
  util::json::Object obj;
  obj.emplace("seq", ev.seq);
  obj.emplace("ts_ns", ev.ts_ns);
  switch (ev.kind) {
    case TraceEventKind::kSpan: {
      obj.emplace("kind", "span");
      obj.emplace("name",
                  duration_metric_name(static_cast<DurationMetric>(ev.id)));
      util::json::Object args;
      args.emplace("start_ns", ev.a);
      args.emplace("end_ns", ev.b);
      obj.emplace("args", std::move(args));
      break;
    }
    case TraceEventKind::kInstant: {
      obj.emplace("kind", "instant");
      obj.emplace("name", instant_name(static_cast<Instant>(ev.id)));
      util::json::Object args;
      args.emplace("value", ev.a);
      obj.emplace("args", std::move(args));
      break;
    }
    case TraceEventKind::kCounters: {
      obj.emplace("kind", "counters");
      obj.emplace("name", "counters");
      util::json::Object args;
      args.emplace("max_load", ev.a);
      args.emplace("l_star", ev.b);
      args.emplace("active_size", ev.c);
      args.emplace("active_tasks", ev.d);
      obj.emplace("args", std::move(args));
      break;
    }
  }
  return util::json::Value(std::move(obj));
}

std::mutex g_crash_path_mutex;
std::string& crash_path_override() {
  static auto* path = new std::string();
  return *path;
}

}  // namespace

std::string_view instant_name(Instant i) noexcept {
  switch (i) {
    case Instant::kArrival: return "arrival";
    case Instant::kDeparture: return "departure";
    case Instant::kReallocRound: return "realloc_round";
    case Instant::kMigrationBatch: return "migration_batch";
    case Instant::kFaultInjected: return "fault_injected";
    case Instant::kStateDigest: return "state_digest";
    case Instant::kServeBatch: return "serve_batch";
    case Instant::kCount: break;
  }
  return "unknown";
}

void CountingTraceSink::consume(const ThreadTrace& chunk) {
  for (const TraceEvent& ev : chunk.events) {
    switch (ev.kind) {
      case TraceEventKind::kSpan: ++spans_[ev.id]; break;
      case TraceEventKind::kInstant: ++instants_[ev.id]; break;
      case TraceEventKind::kCounters: ++counter_samples_; break;
    }
    ++total_;
  }
  dropped_ += chunk.dropped;
}

void set_trace_sink(TraceSink* sink) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  if (reg.sink != nullptr && sink == nullptr) {
    // Disarming: hand the sink whatever is still buffered.
    for (Ring* ring : reg.rings) flush_locked(reg, *ring);
  }
  reg.sink = sink;
  if (sink != nullptr) {
    // Arming: the sink sees only events recorded from this point on; the
    // stale flight-recorder tail stays out of the timeline.
    for (Ring* ring : reg.rings) ring->drained = ring->next;
  }
  detail::g_tracing.store(sink != nullptr, std::memory_order_relaxed);
}

void set_flight_recorder_enabled(bool enabled) noexcept {
  g_recording.store(enabled, std::memory_order_relaxed);
}

bool flight_recorder_enabled() noexcept {
  return g_recording.load(std::memory_order_relaxed);
}

void drain_trace() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (Ring* ring : reg.rings) flush_locked(reg, *ring);
}

void emit_instant(Instant i, std::uint64_t payload) noexcept {
  TraceEvent ev;
  ev.ts_ns = tracing_enabled() ? detail::monotonic_ns() : 0;
  ev.kind = TraceEventKind::kInstant;
  ev.id = static_cast<std::uint8_t>(i);
  ev.a = payload;
  push_event(ev);
}

void emit_counters(std::uint64_t max_load, std::uint64_t l_star,
                   std::uint64_t active_size,
                   std::uint64_t active_tasks) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.ts_ns = detail::monotonic_ns();
  ev.kind = TraceEventKind::kCounters;
  ev.a = max_load;
  ev.b = l_star;
  ev.c = active_size;
  ev.d = active_tasks;
  push_event(ev);
}

std::vector<TraceEvent> thread_flight_record() {
  const Ring& ring = local_ring();
  const std::uint64_t from = ring.next > kFlightRecorderEvents
                                 ? ring.next - kFlightRecorderEvents
                                 : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(ring.next - from));
  for (std::uint64_t s = from; s < ring.next; ++s) {
    out.push_back(ring.slots[s & (kTraceRingCapacity - 1)]);
  }
  return out;
}

void set_crash_dump_path(std::string path) {
  std::lock_guard lock(g_crash_path_mutex);
  crash_path_override() = std::move(path);
}

std::string write_crash_dump(std::string_view reason) {
  util::json::Object root;
  root.emplace("schema", "partree-crash-v1");
  root.emplace("reason", std::string(reason));

  util::json::Array flight;
  for (const TraceEvent& ev : thread_flight_record()) {
    flight.push_back(event_to_json(ev));
  }
  root.emplace("flight_record", std::move(flight));

  // The full partree-metrics-v1 document rides along so invariant-failure
  // forensics include the counts and distributions leading up to the
  // crash. Snapshotting mid-flight is safe: metrics cells are
  // single-writer relaxed atomics.
  root.emplace("metrics", metrics_to_json(snapshot_metrics()));

  const std::string dump = util::json::Value(std::move(root)).dump();
  std::fprintf(stderr, "partree crash dump:\n%s\n", dump.c_str());

  std::string path;
  {
    std::lock_guard lock(g_crash_path_mutex);
    path = crash_path_override();
  }
  if (path.empty()) {
    // Default: partree_crash_<unix_ts>_<pid>.json in PARTREE_CRASH_DIR
    // (created if missing), falling back to the working directory. The pid
    // keeps same-second dumps of concurrent processes (ctest -j) from
    // replacing each other.
    path = "partree_crash_" +
           std::to_string(static_cast<long long>(std::time(nullptr))) + "_" +
           std::to_string(static_cast<long long>(::getpid())) + ".json";
    if (const char* dir = std::getenv("PARTREE_CRASH_DIR");
        dir != nullptr && *dir != '\0') {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr,
                     "partree: cannot create PARTREE_CRASH_DIR %s (%s); "
                     "dumping to the working directory\n",
                     dir, ec.message().c_str());
      } else {
        path = std::string(dir) + "/" + path;
      }
    }
  }
  // Atomic tmp + rename: a crash mid-dump must never leave a truncated
  // JSON file masquerading as a complete crash record.
  if (!util::write_file_atomic(path, dump + "\n")) {
    std::fprintf(stderr, "partree: cannot write crash dump %s\n",
                 path.c_str());
    return "";
  }
  std::fprintf(stderr, "partree: crash dump written to %s\n", path.c_str());
  return path;
}

namespace detail {

void emit_span(DurationMetric m, std::uint64_t start_ns,
               std::uint64_t end_ns) noexcept {
  TraceEvent ev;
  ev.ts_ns = start_ns;
  ev.kind = TraceEventKind::kSpan;
  ev.id = static_cast<std::uint8_t>(m);
  ev.a = start_ns;
  ev.b = end_ns;
  push_event(ev);
}

}  // namespace detail
}  // namespace partree::obs
