// PartitionService tests. Every test name carries the "Serve" prefix so
// `ctest -R Serve` selects exactly this file (scripts/check.sh relies on
// that). The differential tests are the load-bearing ones: a
// multi-threaded service run must reach the same final digest as a
// serial Engine::run replay of the recorded admission sequence -- they
// are the TSan targets.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace partree::serve {
namespace {

core::AllocatorPtr make(const std::string& spec, const tree::Topology& topo) {
  return core::make_allocator(spec, topo);
}

/// Replays `seq` serially through Engine::run and returns the result
/// (with digests recorded) -- the oracle for every differential check.
sim::SimResult replay(const tree::Topology& topo, const std::string& spec,
                      const core::TaskSequence& seq) {
  sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
  auto alloc = make(spec, topo);
  return engine.run(seq, *alloc);
}

TEST(ServeBasicTest, SingleThreadMatchesSerialReplay) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));

  auto t0 = service.submit_arrival(2);
  auto t1 = service.submit_arrival(4);
  auto t2 = service.submit_arrival(1);
  auto d1 = service.submit_departure(t1.id);
  auto t3 = service.submit_arrival(8);

  const Placement p0 = t0.placed.get();
  EXPECT_EQ(p0.id, t0.id);
  EXPECT_EQ(p0.size, 2u);
  EXPECT_NE(p0.node, tree::kInvalidNode);
  EXPECT_GE(p0.max_load, 1u);
  (void)t2.placed.get();
  const Placement pd = d1.get();
  EXPECT_EQ(pd.id, t1.id);
  EXPECT_EQ(pd.size, 4u);  // departures report the departing task's size
  (void)t3.placed.get();

  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.applied, 5u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.arrivals, 4u);
  EXPECT_EQ(stats.departures, 1u);

  const auto serial = replay(topo, "greedy", service.recorded());
  EXPECT_EQ(stats.final_digest, serial.final_digest);
  EXPECT_EQ(stats.placement_digest, serial.placement_digest);
  EXPECT_EQ(stats.max_load, serial.max_load);
  EXPECT_EQ(stats.optimal_load, serial.optimal_load);
}

TEST(ServeBasicTest, ArrivalIdsFollowAdmissionOrder) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  for (core::TaskId expected = 0; expected < 16; ++expected) {
    auto ticket = service.submit_arrival(1);
    EXPECT_EQ(ticket.id, expected);
    (void)ticket.placed.get();
  }
  service.stop();
  EXPECT_EQ(service.stats().arrivals, 16u);
}

TEST(ServeBasicTest, InvalidArrivalSizeThrowsWithoutAdmission) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  for (const std::uint64_t bad : {0ull, 3ull, 8ull, 100ull}) {
    try {
      (void)service.submit_arrival(bad);
      FAIL() << "size " << bad << " should have thrown";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceErrorCode::kBadRequest);
    }
  }
  service.stop();
  EXPECT_EQ(service.stats().admitted, 0u);
  EXPECT_EQ(service.recorded().events().size(), 0u);
}

TEST(ServeBasicTest, UnknownDepartureFailsOnlyThatFuture) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(1);
  auto bogus = service.submit_departure(12345);
  // The reserved id is the task table's empty-slot key: it must read as
  // inactive, not match an empty slot.
  auto reserved = service.submit_departure(core::kInvalidTask);
  auto b = service.submit_arrival(2);

  (void)a.placed.get();
  const Placement failed = bogus.get();
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(failed.id, 12345u);
  try {
    failed.throw_if_failed();
    FAIL() << "throw_if_failed should rethrow the in-band failure";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kBadRequest);
  }
  const Placement reserved_failed = reserved.get();
  EXPECT_FALSE(reserved_failed.ok);
  EXPECT_EQ(reserved_failed.error, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(reserved_failed.id, core::kInvalidTask);
  EXPECT_TRUE(b.placed.get().ok);  // the neighbour is unaffected

  service.stop();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.failed, 2u);
  // The failed departure is NOT recorded, so the sequence still replays.
  EXPECT_EQ(service.recorded().events().size(), 2u);
  const sim::SimResult serial = replay(topo, "greedy", service.recorded());
  EXPECT_EQ(stats.final_digest, serial.final_digest);
  // A failed request takes no event index, as it takes no recorded event.
  EXPECT_EQ(stats.placement_digest, serial.placement_digest);
}

TEST(ServeBasicTest, DoubleDepartureSecondFails) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(2);
  (void)a.placed.get();
  EXPECT_TRUE(service.submit_departure(a.id).get().ok);
  EXPECT_FALSE(service.submit_departure(a.id).get().ok);
  service.stop();
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ServeBackpressureTest, BlockModeUnblocksWhenSpaceFrees) {
  const tree::Topology topo(4);
  ServiceOptions options;
  options.queue_capacity = 2;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();

  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 2; ++i) tickets.push_back(service.submit_arrival(1));

  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    auto t = service.submit_arrival(1);  // parks: queue is full
    admitted.store(true);
    (void)t.placed.get();
  });
  // The submitter must still be parked while the apply thread is paused.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load());

  service.resume_applying();  // drains the queue, freeing space
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();
  EXPECT_EQ(service.stats().admitted, 3u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServeLifecycleTest, SubmitAfterStopThrowsStopped) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(1);
  service.stop();
  (void)a.placed.get();  // admitted before stop: still answered
  try {
    (void)service.submit_arrival(1);
    FAIL() << "post-stop submission should have thrown";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kStopped);
  }
  try {
    (void)service.submit_departure(a.id);
    FAIL() << "post-stop submission should have thrown";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceErrorCode::kStopped);
  }
  // Both refusals count; the admitted request does not.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected, 2u);
}

TEST(ServeLifecycleTest, StopIsIdempotentAndDestructorSafe) {
  const tree::Topology topo(4);
  PartitionService service(topo, make("greedy", topo));
  auto a = service.submit_arrival(1);
  service.stop();
  service.stop();
  EXPECT_EQ(a.placed.get().size, 1u);
  // Destructor runs stop() a third time on scope exit.
}

TEST(ServeLifecycleTest, FlushAppliesEverythingAdmittedSoFar) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 32; ++i) tickets.push_back(service.submit_arrival(1));
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.applied, 32u);
  for (auto& t : tickets) {
    EXPECT_EQ(t.placed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  service.stop();
}

TEST(ServeLifecycleTest, ConcurrentStopJoinsOnce) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));
  service.pause_applying();  // stop() overrides the pause and drains
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(service.submit_arrival(1));

  constexpr std::ptrdiff_t kStoppers = 4;
  std::latch start(kStoppers);
  std::vector<std::thread> stoppers;
  for (std::ptrdiff_t i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([&] {
      start.arrive_and_wait();
      service.stop();
    });
  }
  for (auto& t : stoppers) t.join();

  // Every stop() returned only after the apply thread answered all.
  for (auto& t : tickets) {
    EXPECT_EQ(t.placed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.applied, 8u);
  EXPECT_EQ(stats.final_digest,
            replay(topo, "greedy", service.recorded()).final_digest);
}

TEST(ServeLifecycleTest, DrainEmptiesTheQueue) {
  const tree::Topology topo(8);
  PartitionService service(topo, make("greedy", topo));
  for (int i = 0; i < 64; ++i) {
    auto t = service.submit_arrival(1);
    (void)t;  // futures dropped on purpose: drain must not need them
  }
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.applied + stats.failed, stats.admitted);
  service.stop();
}

TEST(ServeBatchTest, BatchCapIsRespected) {
  const tree::Topology topo(8);
  ServiceOptions options;
  options.queue_capacity = 128;
  options.batch_size = 8;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 40; ++i) tickets.push_back(service.submit_arrival(1));
  service.resume_applying();
  for (auto& t : tickets) (void)t.placed.get();
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.max_batch, 8u);
  // 40 queued requests at cap 8 need at least 5 epoch batches.
  EXPECT_GE(stats.batches, 5u);
  EXPECT_GE(stats.max_batch, 1u);
}

TEST(ServeBatchTest, PlacementsCarryBatchIndexes) {
  const tree::Topology topo(8);
  ServiceOptions options;
  options.batch_size = 4;
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 12; ++i) tickets.push_back(service.submit_arrival(1));
  service.resume_applying();
  std::uint64_t last_batch = 0;
  for (auto& t : tickets) {
    const Placement p = t.placed.get();
    EXPECT_GE(p.batch, last_batch);  // admission order => batch monotone
    last_batch = p.batch;
  }
  EXPECT_GE(last_batch, 2u);  // 12 requests / cap 4 => at least 3 batches
  service.stop();
}

TEST(ServeBatchTest, OldestFutureReadyMeansBatchReady) {
  const tree::Topology topo(8);
  ServiceOptions options;
  options.batch_size = 64;  // the 8 requests below make one batch
  PartitionService service(topo, make("greedy", topo), options);
  service.pause_applying();
  std::vector<ArrivalTicket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(service.submit_arrival(1));
  service.resume_applying();

  // Block on the oldest future only: a batch completes newest first, so
  // by then every newer request of the batch is ready too.
  tickets.front().placed.wait();
  for (auto& t : tickets) {
    EXPECT_EQ(t.placed.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  const std::uint64_t batch = tickets.front().placed.get().batch;
  for (std::size_t i = 1; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i].placed.get().batch, batch);
  }
  service.stop();
}

/// One closed-loop client: keeps ~`hold` tasks active, alternating
/// arrivals and departures of its own tasks, with up to `window`
/// requests in flight. At window 1 it waits on each future before its
/// next submit; wider, a departure can be admitted before its arrival has
/// applied, and the global admission order still applies the arrival
/// first.
void run_client(PartitionService& service, std::uint64_t seed,
                std::uint64_t requests, std::uint64_t hold,
                std::size_t window) {
  util::Rng rng(seed);
  const std::uint64_t n = service.topology().n_leaves();
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << (log2n + 1)) <= n) ++log2n;
  std::vector<core::TaskId> mine;
  std::deque<std::future<Placement>> in_flight;
  const auto harvest = [&in_flight](std::size_t keep) {
    while (in_flight.size() > keep) {
      (void)in_flight.front().get();
      in_flight.pop_front();
    }
  };
  for (std::uint64_t k = 0; k < requests; ++k) {
    const bool depart = !mine.empty() &&
                        (mine.size() >= hold || rng.bernoulli(0.4));
    if (depart) {
      const std::uint64_t pick = rng.below(mine.size());
      const core::TaskId id = mine[pick];
      mine[pick] = mine.back();
      mine.pop_back();
      in_flight.push_back(service.submit_departure(id));
    } else {
      const std::uint64_t size = std::uint64_t{1} << rng.below(log2n + 1);
      auto ticket = service.submit_arrival(size);
      mine.push_back(ticket.id);
      in_flight.push_back(std::move(ticket.placed));
    }
    harvest(window - 1);
  }
  // Retire the remaining tasks so the machine ends empty-ish per client.
  for (const core::TaskId id : mine) {
    in_flight.push_back(service.submit_departure(id));
    harvest(window - 1);
  }
  harvest(0);
}

/// A differential run's shape: machine size, client threads, requests
/// per client, and requests each client keeps in flight.
struct DifferentialShape {
  std::uint64_t pes = 32;
  std::uint64_t clients = 4;
  std::uint64_t requests = 500;
  std::size_t window = 1;
};

/// The differential oracle: client threads hammer the service; the
/// recorded admission sequence replayed serially through Engine::run
/// must reproduce the exact same final digest, placement digest, max
/// load and counts. Run under TSan in CI (threadsanitize job).
void run_differential(const std::string& spec,
                      const DifferentialShape& shape = {}) {
  const tree::Topology topo(shape.pes);
  ServiceOptions options;
  options.queue_capacity = 64;
  options.batch_size = 16;
  PartitionService service(topo, make(spec, topo), options);

  std::vector<std::thread> clients;
  for (std::uint64_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&service, &shape, c] {
      run_client(service, 0x5eed + c, shape.requests, 8, shape.window);
    });
  }
  for (auto& t : clients) t.join();
  service.drain();
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 0u) << spec;
  EXPECT_EQ(stats.applied, stats.admitted) << spec;
  EXPECT_GE(stats.applied, shape.clients * shape.requests) << spec;
  EXPECT_EQ(service.recorded().events().size(), stats.applied) << spec;

  const auto serial = replay(topo, spec, service.recorded());
  EXPECT_EQ(stats.final_digest, serial.final_digest) << spec;
  EXPECT_EQ(stats.placement_digest, serial.placement_digest) << spec;
  EXPECT_EQ(stats.max_load, serial.max_load) << spec;
  EXPECT_EQ(stats.arrivals, serial.arrivals) << spec;
  EXPECT_EQ(stats.departures, serial.departures) << spec;
  EXPECT_EQ(stats.reallocation_count, serial.reallocation_count) << spec;
  EXPECT_EQ(stats.migration_count, serial.migration_count) << spec;
}

TEST(ServeDifferentialTest, GreedyMatchesSerialReplay) {
  run_differential("greedy");
}

TEST(ServeDifferentialTest, BasicMatchesSerialReplay) {
  run_differential("basic");
}

TEST(ServeDifferentialTest, DReallocMatchesSerialReplay) {
  run_differential("dmix:d=1");
}

TEST(ServeDifferentialTest, RandomizedMatchesSerialReplay) {
  run_differential("random");
}

// Several requests of one client in one batch: the pattern whose
// completion order the batch-end hand-off changes, and the one
// perfbench and serve_loadgen drive.
TEST(ServeDifferentialTest, WindowedDReallocMatchesSerialReplay) {
  run_differential("dmix:d=1", {.window = 8});
}

// serve_dmix's machine size and client shape, where the allocator's
// large-N paths run.
TEST(ServeDifferentialTest, WindowedDmixAt65536MatchesSerialReplay) {
  run_differential("dmix:d=2", {.pes = std::uint64_t{1} << 16,
                                .clients = 2,
                                .requests = 2000,
                                .window = 16});
}

}  // namespace
}  // namespace partree::serve
