// The arity-A machine (E12): a decomposable machine with arity A = 2^k is
// the binary tree with task sizes restricted to powers of A, so E12 runs
// the core allocators on power-of-A event streams. These tests check the
// generators, E12's claims, and pin every E12 row against a golden file
// written by the separate arity-A implementation that E12 used to run on.
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workload/sizes.hpp"
#include "workload/stressors.hpp"
#include "workload/synthetic.hpp"

namespace partree {
namespace {

struct ArityMachine {
  std::uint64_t arity;
  std::uint64_t n_pes;
};

// One machine per arity, N = A^h.
constexpr ArityMachine kMachines[] = {{2, 256}, {4, 256}, {8, 512}};

bool is_power_of(std::uint64_t size, std::uint64_t arity) {
  std::uint64_t power = 1;
  while (power < size) power *= arity;
  return power == size;
}

sim::SimResult run(const core::TaskSequence& sequence, tree::Topology topo,
                   const std::string& spec) {
  const auto allocator = core::make_allocator(spec, topo);
  return sim::Engine(topo).run(sequence, *allocator);
}

void expect_sizes_are_powers_of(const core::TaskSequence& sequence,
                                std::uint64_t arity) {
  for (const core::Event& e : sequence.events()) {
    if (e.kind == core::EventKind::kArrival) {
      EXPECT_TRUE(is_power_of(e.task.size, arity))
          << "size " << e.task.size << " at arity " << arity;
    }
  }
}

TEST(ArityWorkloadTest, LogArityIsTheArityMachineHeight) {
  EXPECT_EQ(workload::log_arity(1, 4), 0u);
  EXPECT_EQ(workload::log_arity(1024, 2), 10u);
  EXPECT_EQ(workload::log_arity(1024, 4), 5u);
  EXPECT_EQ(workload::log_arity(512, 8), 3u);
}

TEST(ArityWorkloadTest, ClosedLoopIsValidInPowersOfArity) {
  for (const auto [arity, n_pes] : kMachines) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    const tree::Topology topo(n_pes);
    util::Rng rng(5);
    const core::TaskSequence seq =
        workload::arity_closed_loop(topo, arity, 800, 0.8, rng);
    EXPECT_EQ(seq.validate(n_pes), "");
    EXPECT_GT(seq.arrival_count(), 0u);
    EXPECT_EQ(seq.active_size_after(seq.size()), 0u);  // drained
    expect_sizes_are_powers_of(seq, arity);
  }
}

TEST(ArityWorkloadTest, StaircaseIsValidWithUnitOptimum) {
  for (const auto [arity, n_pes] : kMachines) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    const core::TaskSequence seq =
        workload::arity_staircase(tree::Topology(n_pes), arity);
    EXPECT_EQ(seq.validate(n_pes), "");
    EXPECT_EQ(seq.optimal_load(n_pes), 1u);
    expect_sizes_are_powers_of(seq, arity);
  }
}

TEST(ArityMachineTest, DZeroKeepsMaxLoadAtOptimal) {
  for (const auto [arity, n_pes] : kMachines) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    const tree::Topology topo(n_pes);
    util::Rng rng(11);
    const core::TaskSequence workloads[] = {
        workload::arity_closed_loop(topo, arity, 1500, 0.9, rng),
        workload::arity_staircase(topo, arity)};
    for (const core::TaskSequence& seq : workloads) {
      const sim::SimResult r = run(seq, topo, "dmix:d=0");
      EXPECT_EQ(r.max_load, r.optimal_load);
    }
  }
}

TEST(ArityMachineTest, GreedyWithinLogArityBound) {
  for (const auto [arity, n_pes] : kMachines) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    const tree::Topology topo(n_pes);
    util::Rng rng(7);
    const core::TaskSequence workloads[] = {
        workload::arity_closed_loop(topo, arity, 2000, 0.85, rng),
        workload::arity_staircase(topo, arity)};
    const std::uint64_t bound = workload::log_arity(n_pes, arity) + 1;
    for (const core::TaskSequence& seq : workloads) {
      const sim::SimResult r = run(seq, topo, "greedy");
      EXPECT_GE(r.max_load, r.optimal_load);
      EXPECT_LE(r.max_load, bound * r.optimal_load);
    }
  }
}

// Single runs on the quadtree machine (A = 4).

TEST(KRunTest, TradeoffMonotoneOnStaircase) {
  // h = 4: larger d never lowers the load on the fragmenting staircase.
  const tree::Topology topo(256);
  const core::TaskSequence seq = workload::arity_staircase(topo, 4);
  std::uint64_t previous = 0;
  for (const std::uint64_t d : {0ull, 1ull, 2ull, 4ull}) {
    const sim::SimResult r = run(seq, topo, "dmix:d=" + std::to_string(d));
    EXPECT_GE(r.max_load, previous) << "d=" << d;
    previous = r.max_load;
  }
}

TEST(KRunTest, StaircaseFragmentsNorealloc) {
  // h = 4: A_C (d = 0) holds L*, and both no-reallocation algorithms
  // exceed it.
  const tree::Topology topo(256);
  const core::TaskSequence seq = workload::arity_staircase(topo, 4);
  const sim::SimResult optimal = run(seq, topo, "dmix:d=0");
  EXPECT_EQ(optimal.max_load, optimal.optimal_load);
  EXPECT_GT(run(seq, topo, "greedy").max_load, optimal.max_load);
  EXPECT_GT(run(seq, topo, "basic").max_load, optimal.max_load);
}

TEST(KRunTest, BasicNeverReallocates) {
  const tree::Topology topo(64);  // h = 3
  util::Rng rng(13);
  const core::TaskSequence seq =
      workload::arity_closed_loop(topo, 4, 1000, 0.8, rng);
  const sim::SimResult r = run(seq, topo, "basic");
  EXPECT_GT(r.max_load, 0u);
  EXPECT_EQ(r.reallocation_count, 0u);
  EXPECT_EQ(r.migration_count, 0u);
}

TEST(KRunTest, EmptyEventsGiveZero) {
  const tree::Topology topo(16);  // h = 2
  const sim::SimResult r = run(core::TaskSequence{}, topo, "greedy");
  EXPECT_EQ(r.max_load, 0u);
  EXPECT_EQ(r.optimal_load, 0u);
  EXPECT_DOUBLE_EQ(r.ratio(), 1.0);
}

/// E12's grid at its default seed, one line per table row: machine,
/// workload, spec and d, then max load, L*, reallocations and moves.
std::string render_e12_grid() {
  constexpr ArityMachine kE12Machines[] = {{2, 1024}, {4, 1024}, {8, 512}};
  std::ostringstream out;
  for (const auto [arity, n_pes] : kE12Machines) {
    const tree::Topology topo(n_pes);
    util::Rng rng(1);
    const core::TaskSequence steady =
        workload::arity_closed_loop(topo, arity, 4000, 0.85, rng);
    const core::TaskSequence stairs = workload::arity_staircase(topo, arity);
    const std::pair<const char*, const core::TaskSequence*> workloads[] = {
        {"steady", &steady}, {"staircase", &stairs}};
    for (const auto& [wname, seq] : workloads) {
      auto row = [&](const std::string& spec, const std::string& d) {
        const sim::SimResult r =
            run(*seq, topo, d == "-" ? spec : spec + ":d=" + d);
        out << "A=" << arity << " h=" << workload::log_arity(n_pes, arity)
            << " " << wname << " " << spec << " d=" << d
            << " max_load=" << r.max_load << " L*=" << r.optimal_load
            << " reallocations=" << r.reallocation_count
            << " migrations=" << r.migration_count << "\n";
      };
      for (const char* d : {"0", "1", "2", "4"}) row("dmix", d);
      row("greedy", "-");
      row("basic", "-");
    }
  }
  return out.str();
}

TEST(ArityGoldenTest, E12GridMatchesGoldenFile) {
  const std::string path =
      std::string(PARTREE_GOLDEN_DIR) + "/e12_arity_grid.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  const std::string actual = render_e12_grid();
  EXPECT_EQ(actual, golden.str())
      << "E12 grid drifted from the golden file. If the change is "
         "intentional, update " << path << " to:\n" << actual;
}

}  // namespace
}  // namespace partree
