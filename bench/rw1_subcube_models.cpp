// RW1 -- the related-work contrast: exclusive subcubes vs shared PEs.
//
// Pre-SPAA'96 hypercube allocation (Chen-Shin, Chen-Lai, Dutt-Hayes)
// gives each task exclusive PEs and REJECTS requests it cannot place;
// the paper's model instead shares PEs and pays in thread load. This
// bench runs the same demand on both models:
//   exclusive: buddy and gray-code strategies -> rejection rate + mean
//              utilization (gray-code recognizes more subcubes);
//   shared:    the paper's allocators -> zero rejections, measured load.
// The table quantifies the trade the paper's model makes: availability
// for load.
#include "bench_common.hpp"

#include <cstdio>

#include "core/factory.hpp"
#include "machines/subcube_alloc.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("dim", "cube dimension (N = 2^dim, dim at most 20)", "8",
             util::Cli::Kind::kU64);
  cli.option("steps", "workload steps per run", "20000",
             util::Cli::Kind::kPositive);
  cli.option("runs", "seeded runs to average", "8",
             util::Cli::Kind::kPositive);
  if (!bench::parse_standard(cli, argc, argv)) return 1;

  // N = 2^20 is the largest machine any test or benchmark runs; from
  // dim 64 on, 1 << dim is undefined.
  constexpr std::uint64_t kMaxDim = 20;
  if (cli.get_u64("dim") > kMaxDim) {
    std::fprintf(stderr, "option --dim must be at most %llu, got %llu\n%s",
                 static_cast<unsigned long long>(kMaxDim),
                 static_cast<unsigned long long>(cli.get_u64("dim")),
                 cli.usage(argv[0]).c_str());
    return 1;
  }
  const auto dim = static_cast<std::uint32_t>(cli.get_u64("dim"));
  const tree::Topology topo(std::uint64_t{1} << dim);

  bench::banner("RW1 / exclusive vs shared allocation models",
                "Related work rejects requests it cannot place exclusively; "
                "the paper's model never rejects and pays in thread load.");

  util::Table table({"model", "policy", "rejection_rate", "mean_util",
                     "max_load", "ok"});
  std::uint64_t violations = 0;
  const std::uint64_t runs = cli.get_u64("runs");
  const std::uint64_t steps = cli.get_u64("steps");

  // Exclusive strategies.
  for (const auto strategy :
       {machines::SubcubeStrategy::kBuddy,
        machines::SubcubeStrategy::kGrayCode}) {
    double reject_sum = 0.0;
    double util_sum = 0.0;
    for (std::uint64_t run = 0; run < runs; ++run) {
      machines::SubcubeAllocator alloc(dim, strategy);
      util::Rng rng(cli.get_u64("seed") + run);
      const auto result = run_exclusive(alloc, steps, 0.65, rng);
      reject_sum += result.rejection_rate();
      util_sum += result.mean_utilization;
    }
    table.add("exclusive", machines::to_string(strategy),
              reject_sum / static_cast<double>(runs),
              util_sum / static_cast<double>(runs), "-", true);
  }

  // Shared model: similar demand pressure via a closed loop just above
  // machine capacity; rejection is structurally zero.
  for (const char* spec : {"greedy", "dmix:d=1", "optimal"}) {
    double worst_ratio = 0.0;
    std::uint64_t worst_load = 0;
    for (std::uint64_t run = 0; run < runs; ++run) {
      util::Rng rng(cli.get_u64("seed") + run);
      workload::ClosedLoopParams params;
      params.n_events = steps / 4;
      params.utilization = 0.95;
      params.size = workload::SizeSpec::uniform_log(0, dim);
      const auto seq = workload::closed_loop(topo, params, rng);
      sim::Engine engine(topo);
      auto alloc = core::make_allocator(spec, topo);
      const auto result = engine.run(seq, *alloc);
      worst_ratio = std::max(worst_ratio, result.ratio());
      worst_load = std::max(worst_load, result.max_load);
    }
    // The shared model's promise: bounded load, no rejections.
    const bool ok = worst_ratio <= 8.0;
    if (!ok) ++violations;
    table.add("shared (paper)", spec, 0.0, 0.95, worst_load, ok);
  }

  bench::emit(table,
              "Exclusive vs shared on an " + std::to_string(dim) +
                  "-cube (N = " + std::to_string(topo.n_leaves()) + ")",
              cli);
  bench::verdict(violations);
  return violations == 0 ? 0 : 2;
}
