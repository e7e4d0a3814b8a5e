#include "obs/trace.hpp"

#include <mutex>

#include "obs/timing.hpp"

namespace partree::obs {
namespace {

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

// The single producer-side write, made only while a sink is armed: one
// slot store plus an index bump, and a flush just before the ring would
// wrap.
void push_event(TraceEvent ev) noexcept {
  Ring& ring = local_ring();
  ev.seq = ring.next;
  ring.slots[ring.next & (kTraceRingCapacity - 1)] = ev;
  ++ring.next;
  if (ring.next - ring.drained >= kTraceRingCapacity) {
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    flush_locked(reg, ring);
  }
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
    // Arming: the sink sees only events recorded from this point on.
    for (Ring* ring : reg.rings) ring->drained = ring->next;
  }
  detail::g_tracing.store(sink != nullptr, std::memory_order_relaxed);
}

void drain_trace() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (Ring* ring : reg.rings) flush_locked(reg, *ring);
}

void emit_instant(Instant i, std::uint64_t payload) noexcept {
  if (!tracing_enabled()) return;
  TraceEvent ev;
  ev.ts_ns = detail::monotonic_ns();
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
