// serve_loadgen: closed-loop load generator for the online partition
// service (serve/service.hpp).
//
//   ./serve_loadgen                                  # 4 clients, 100k requests
//   ./serve_loadgen --clients 8 --requests 200000 --alloc greedy
//
// N client threads each keep a private working set of tasks, submitting
// arrivals and departures with up to --window requests in flight, and
// measure per-request latency from submission to future completion. At
// the end the run SELF-VERIFIES: the recorded admission sequence is
// replayed serially through Engine::run, the final state digests must
// match -- any lost, duplicated, or reordered request changes the digest
// -- and so must the placement digests; the service's own counts
// (ServiceStats) must equal the replay's SimResult: arrivals, departures,
// rounds, moves and moved size.
// The replay is timed too, to split a request's wall time into the
// serial apply cost (serial_apply_ns_per_event: replay time per replayed
// event) and the service's overhead around it (overhead_ns_per_req: wall
// time per applied request minus that serial cost) -- perfbench's
// serve.* definitions.
// Exit status: 0 verified, 1 digest mismatch, lost requests or a count
// that differs from the replay's, 2 a bad option value.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "tree/topology.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace {

using namespace partree;

struct ClientResult {
  std::uint64_t submitted = 0;
  std::vector<std::uint64_t> latencies_ns;
};

/// One in-flight request: when it was submitted and the future that
/// completes when the apply thread answers it.
struct Pending {
  std::uint64_t submit_ns = 0;
  std::future<serve::Placement> done;
};

void harvest(std::vector<Pending>& window, std::size_t keep,
             ClientResult& out) {
  while (window.size() > keep) {
    Pending p = std::move(window.front());
    window.erase(window.begin());
    (void)p.done.get();
    out.latencies_ns.push_back(util::monotonic_ns() - p.submit_ns);
  }
}

/// Closed-loop client: hold ~8 tasks active, pipeline up to `window`
/// outstanding requests. Departures only name this client's own admitted
/// arrivals, which the global admission order guarantees apply first.
ClientResult run_client(serve::PartitionService& service, std::uint64_t seed,
                        std::uint64_t requests, std::size_t window) {
  ClientResult result;
  util::Rng rng(seed);
  const std::uint64_t n = service.topology().n_leaves();
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n) ++log2n;

  std::vector<core::TaskId> mine;
  std::vector<Pending> in_flight;
  constexpr std::size_t kHold = 8;  // target working-set size

  for (std::uint64_t k = 0; k < requests; ++k) {
    const bool depart =
        !mine.empty() && (mine.size() >= kHold || rng.bernoulli(0.45));
    Pending p;
    p.submit_ns = util::monotonic_ns();
    if (depart) {
      const std::uint64_t pick = rng.below(mine.size());
      const core::TaskId id = mine[pick];
      mine[pick] = mine.back();
      mine.pop_back();
      p.done = service.submit_departure(id);
    } else {
      const std::uint64_t size = std::uint64_t{1} << rng.below(log2n + 1);
      serve::ArrivalTicket ticket = service.submit_arrival(size);
      mine.push_back(ticket.id);
      p.done = std::move(ticket.placed);
    }
    in_flight.push_back(std::move(p));
    ++result.submitted;
    harvest(in_flight, window - 1, result);
  }
  // Retire the remaining working set so the machine drains.
  for (const core::TaskId id : mine) {
    Pending p;
    p.submit_ns = util::monotonic_ns();
    p.done = service.submit_departure(id);
    in_flight.push_back(std::move(p));
    ++result.submitted;
  }
  harvest(in_flight, 0, result);
  return result;
}

/// Checks that the service counted exactly the work the serial replay
/// did; prints each mismatch and returns false if there is one.
bool reconciles(const serve::ServiceStats& stats,
                const sim::SimResult& serial) {
  struct Pair {
    const char* what;
    std::uint64_t service;
    std::uint64_t replay;
  };
  const Pair pairs[] = {
      {"arrivals", stats.arrivals, serial.arrivals},
      {"departures", stats.departures, serial.departures},
      {"reallocation_count", stats.reallocation_count,
       serial.reallocation_count},
      {"migration_count", stats.migration_count, serial.migration_count},
      {"migrated_size", stats.migrated_size, serial.migrated_size},
  };
  bool ok = true;
  for (const Pair& p : pairs) {
    if (p.service != p.replay) {
      std::fprintf(stderr, "FAIL: service %s %llu != serial replay %llu\n",
                   p.what, static_cast<unsigned long long>(p.service),
                   static_cast<unsigned long long>(p.replay));
      ok = false;
    }
  }
  return ok;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.option("pes", "machine size (power-of-two leaves)", "256",
             util::Cli::Kind::kPow2)
      .option("alloc", "allocator spec (core/factory.hpp)", "dmix:d=2")
      .option("clients", "client threads (at most 256)", "4",
              util::Cli::Kind::kPositive)
      .option("requests",
              "total requests across all clients (at least --clients)",
              "100000", util::Cli::Kind::kU64)
      .option("window", "max in-flight requests per client", "16",
              util::Cli::Kind::kPositive)
      .option("queue", "service queue capacity", "512",
              util::Cli::Kind::kPositive)
      .option("batch", "epoch batch size cap", "64",
              util::Cli::Kind::kPositive)
      .option("seed", "base RNG seed (client c uses seed + c)", "42",
              util::Cli::Kind::kU64);
  if (!cli.parse(argc, argv)) return 2;
  // One OS thread per client: the ceiling keeps a typo from asking for
  // thousands of threads.
  constexpr std::uint64_t kMaxClients = 256;
  const std::uint64_t clients = cli.get_u64("clients");
  if (clients > kMaxClients) {
    std::fprintf(stderr, "option --clients must be at most %llu, got %llu\n%s",
                 static_cast<unsigned long long>(kMaxClients),
                 static_cast<unsigned long long>(clients),
                 cli.usage(argv[0]).c_str());
    return 2;
  }
  // Each client gets requests / clients; with none, nothing is verified.
  const std::uint64_t requests = cli.get_u64("requests");
  if (requests < clients) {
    std::fprintf(stderr,
                 "option --requests must be at least --clients (%llu), got "
                 "%llu\n%s",
                 static_cast<unsigned long long>(clients),
                 static_cast<unsigned long long>(requests),
                 cli.usage(argv[0]).c_str());
    return 2;
  }

  const std::uint64_t pes = cli.get_u64("pes");
  const std::string alloc_spec = cli.get("alloc");
  const auto window = static_cast<std::size_t>(cli.get_u64("window"));

  const tree::Topology topo(pes);
  if (!util::check_option(
          "alloc", [&] { (void)core::make_allocator(alloc_spec, topo); })) {
    return 2;
  }
  serve::ServiceOptions options;
  options.queue_capacity = static_cast<std::size_t>(cli.get_u64("queue"));
  options.batch_size = static_cast<std::size_t>(cli.get_u64("batch"));

  serve::PartitionService service(topo, core::make_allocator(alloc_spec, topo),
                                  options);

  const std::uint64_t per_client = requests / clients;
  const std::uint64_t seed = cli.get_u64("seed");
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  const std::uint64_t t_start = util::monotonic_ns();
  for (std::uint64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      results[c] = run_client(service, seed + c, per_client, window);
    });
  }
  for (auto& t : threads) t.join();
  service.drain();
  const std::uint64_t t_end = util::monotonic_ns();
  service.stop();

  const serve::ServiceStats stats = service.stats();
  std::vector<std::uint64_t> latencies;
  std::uint64_t submitted = 0;
  for (const ClientResult& r : results) {
    submitted += r.submitted;
    latencies.insert(latencies.end(), r.latencies_ns.begin(),
                     r.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());

  const double wall_s =
      static_cast<double>(t_end - t_start) / 1e9;
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(stats.applied) / wall_s : 0.0;
  std::printf("serve_loadgen: %llu PEs, %s, %llu clients x %llu requests\n",
              static_cast<unsigned long long>(pes), alloc_spec.c_str(),
              static_cast<unsigned long long>(clients),
              static_cast<unsigned long long>(per_client));
  std::printf(
      "  applied %llu (%llu arrivals, %llu departures) in %s s -> %s req/s\n",
      static_cast<unsigned long long>(stats.applied),
      static_cast<unsigned long long>(stats.arrivals),
      static_cast<unsigned long long>(stats.departures),
      util::format_double(wall_s, 3).c_str(),
      util::format_double(throughput, 0).c_str());
  std::printf(
      "  latency us: p50 %s  p90 %s  p99 %s  max %s\n",
      util::format_double(static_cast<double>(percentile(latencies, 0.50)) / 1e3, 1).c_str(),
      util::format_double(static_cast<double>(percentile(latencies, 0.90)) / 1e3, 1).c_str(),
      util::format_double(static_cast<double>(percentile(latencies, 0.99)) / 1e3, 1).c_str(),
      util::format_double(
          latencies.empty() ? 0.0 : static_cast<double>(latencies.back()) / 1e3, 1)
          .c_str());
  std::printf(
      "  batches %llu (max %llu), max load %llu (optimal %llu), "
      "reallocations %llu moving %llu tasks\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.max_batch),
      static_cast<unsigned long long>(stats.max_load),
      static_cast<unsigned long long>(stats.optimal_load),
      static_cast<unsigned long long>(stats.reallocation_count),
      static_cast<unsigned long long>(stats.migration_count));

  bool ok = true;
  // Self-verification: no lost/duplicated requests, and the serial
  // replay of the recorded sequence counts the same work and lands on the
  // same digest.
  if (stats.admitted != submitted || stats.applied != stats.admitted ||
      stats.failed != 0) {
    std::fprintf(stderr,
                 "FAIL: submitted %llu admitted %llu applied %llu failed %llu\n",
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(stats.admitted),
                 static_cast<unsigned long long>(stats.applied),
                 static_cast<unsigned long long>(stats.failed));
    ok = false;
  }
  sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
  auto replay_alloc = core::make_allocator(alloc_spec, topo);
  const std::uint64_t replay_start = util::monotonic_ns();
  const sim::SimResult serial = engine.run(service.recorded(), *replay_alloc);
  const std::uint64_t replay_ns = util::monotonic_ns() - replay_start;
  if (serial.events > 0 && stats.applied > 0) {
    const double serial_ns_per_event = static_cast<double>(replay_ns) /
                                       static_cast<double>(serial.events);
    const double wall_ns_per_req = static_cast<double>(t_end - t_start) /
                                   static_cast<double>(stats.applied);
    std::printf("  serial_apply_ns_per_event %s  overhead_ns_per_req %s\n",
                util::format_double(serial_ns_per_event, 1).c_str(),
                util::format_double(wall_ns_per_req - serial_ns_per_event, 1)
                    .c_str());
  }
  if (!reconciles(stats, serial)) ok = false;
  if (serial.final_digest != stats.final_digest ||
      serial.placement_digest != stats.placement_digest ||
      serial.max_load != stats.max_load) {
    std::fprintf(
        stderr,
        "FAIL: serve digest %016llx placement %016llx load %llu != serial "
        "replay digest %016llx placement %016llx load %llu\n",
        static_cast<unsigned long long>(stats.final_digest),
        static_cast<unsigned long long>(stats.placement_digest),
        static_cast<unsigned long long>(stats.max_load),
        static_cast<unsigned long long>(serial.final_digest),
        static_cast<unsigned long long>(serial.placement_digest),
        static_cast<unsigned long long>(serial.max_load));
    ok = false;
  }
  if (ok) {
    std::printf("  verified: serial replay of %zu recorded events matches "
                "(digest %016llx)\n",
                service.recorded().events().size(),
                static_cast<unsigned long long>(stats.final_digest));
  }
  return ok ? 0 : 1;
}
