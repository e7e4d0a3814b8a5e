#include "obs/chrome_trace.hpp"

#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace partree::obs {
namespace {

// Microsecond timestamps with nanosecond resolution, the format's unit.
std::string format_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

std::string common_fields(std::string_view name, std::string_view ph,
                          std::uint64_t tid, std::uint64_t ts_ns) {
  std::string out = "{\"name\":";
  out += util::json::quote(name);
  out += ",\"ph\":\"";
  out += ph;
  out += "\",\"pid\":0,\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  out += format_us(ts_ns);
  return out;
}

}  // namespace

void ChromeTraceSink::append_event(std::string_view body) {
  if (!events_.empty()) events_ += ",\n";
  events_ += body;
}

void ChromeTraceSink::consume(const ThreadTrace& chunk) {
  std::lock_guard lock(mutex_);
  tally_.consume(chunk);
  if (chunk.events.empty()) return;

  if (tids_seen_.insert(chunk.tid).second) {
    if (tids_seen_.size() == 1) {
      append_event(
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"partree\"}}");
    }
    std::string meta =
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
        std::to_string(chunk.tid) + ",\"args\":{\"name\":\"thread-" +
        std::to_string(chunk.tid) + "\"}}";
    append_event(meta);
  }

  for (const TraceEvent& ev : chunk.events) {
    switch (ev.kind) {
      case TraceEventKind::kSpan: {
        const auto metric = static_cast<DurationMetric>(ev.id);
        std::string e = common_fields(duration_metric_name(metric), "X",
                                      chunk.tid, ev.a);
        e += ",\"dur\":";
        e += format_us(ev.b - ev.a);
        e += ",\"cat\":\"phase\"}";
        append_event(e);
        break;
      }
      case TraceEventKind::kInstant: {
        const auto instant = static_cast<Instant>(ev.id);
        std::string e = common_fields(instant_name(instant), "i", chunk.tid,
                                      ev.ts_ns);
        e += ",\"s\":\"t\",\"cat\":\"engine\",\"args\":{\"value\":";
        e += std::to_string(ev.a);
        e += "}}";
        append_event(e);
        break;
      }
      case TraceEventKind::kCounters: {
        const struct {
          const char* name;
          std::uint64_t value;
        } series[] = {{"max_load", ev.a},
                      {"l_star", ev.b},
                      {"active_size", ev.c},
                      {"active_tasks", ev.d}};
        for (const auto& [name, value] : series) {
          std::string e = common_fields(name, "C", chunk.tid, ev.ts_ns);
          e += ",\"args\":{\"";
          e += name;
          e += "\":";
          e += std::to_string(value);
          e += "}}";
          append_event(e);
        }
        break;
      }
    }
  }
}

std::uint64_t ChromeTraceSink::span_count(DurationMetric m) const {
  std::lock_guard lock(mutex_);
  return tally_.spans(m);
}

std::uint64_t ChromeTraceSink::instant_count(Instant i) const {
  std::lock_guard lock(mutex_);
  return tally_.instants(i);
}

std::uint64_t ChromeTraceSink::counter_samples() const {
  std::lock_guard lock(mutex_);
  return tally_.counter_samples();
}

std::uint64_t ChromeTraceSink::dropped_events() const {
  std::lock_guard lock(mutex_);
  return tally_.dropped();
}

std::string ChromeTraceSink::document() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += events_;
  out += "\n]}";
  return out;
}

bool ChromeTraceSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << document() << "\n";
  return static_cast<bool>(out);
}

}  // namespace partree::obs
