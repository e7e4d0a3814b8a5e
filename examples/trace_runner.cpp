// Trace runner: replay a task trace through any allocator.
//
//   ./trace_runner --trace mytrace.csv --n 1024 --allocator dmix:d=2
//   ./trace_runner --campaign steady-mix --n 256 --slowdowns
//   ./trace_runner --make-demo demo.csv --n 64     # write a demo trace
//
// The input format is the library's own CSV (kind,id,size rows; see
// workload/trace.hpp), so traces recorded from adversary_duel or produced
// by external schedulers replay bit-for-bit; --campaign generates one of
// the named workload campaigns instead.
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "util/cli.hpp"
#include "workload/campaign.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace partree;

  util::Cli cli;
  cli.option("trace", "CSV trace to replay", "")
      .option("campaign", "generate this named campaign instead of reading "
                          "a CSV (see workload/campaign.hpp)", "")
      .option("n", "number of PEs (power of two)", "1024",
              util::Cli::Kind::kPow2)
      .option("allocator", "allocator spec (see factory)", "greedy")
      .option("seed", "seed for campaigns and randomized allocators", "1",
              util::Cli::Kind::kU64)
      .option("scale", "campaign length multiplier", "0.5",
              util::Cli::Kind::kDouble)
      .option("make-demo", "write a demo trace to this path and exit", "")
      .flag("slowdowns", "also report the per-task slowdown distribution");
  if (!cli.parse(argc, argv)) return 1;

  const tree::Topology topo(cli.get_u64("n"));
  const std::string path = cli.get("trace");
  const std::string campaign = cli.get("campaign");
  const std::string spec = cli.get("allocator");
  const double scale = cli.get_double("scale");
  if (!util::check_option("allocator",
                          [&] { (void)core::make_allocator(spec, topo); }) ||
      !util::check_option("scale",
                          [&] { workload::check_campaign_scale(scale); })) {
    return 1;
  }
  if (!campaign.empty() &&
      !util::check_option("campaign",
                          [&] { workload::check_campaign_name(campaign); })) {
    return 1;
  }

  if (const std::string demo = cli.get("make-demo"); !demo.empty()) {
    util::Rng rng(cli.get_u64("seed"));
    const core::TaskSequence seq =
        workload::make_campaign("steady-mix", topo, rng, 0.5);
    try {
      workload::write_trace_file(seq, demo);
    } catch (const std::runtime_error&) {
      std::fprintf(stderr, "cannot write %s\n", demo.c_str());
      return 1;
    }
    std::printf("wrote %zu events to %s\n", seq.size(), demo.c_str());
    return 0;
  }

  if (path.empty() == campaign.empty()) {
    std::fprintf(stderr,
                 "need exactly one of --trace <file> / --campaign <name> "
                 "(or --make-demo <file>)\n");
    return 1;
  }

  core::TaskSequence seq;
  std::string source_label;
  if (!path.empty()) {
    try {
      seq = workload::read_trace_file(path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "trace_runner: --trace %s: %s\n", path.c_str(),
                   e.what());
      return 1;
    }
    source_label = path;
  } else {
    util::Rng rng(cli.get_u64("seed"));
    seq = workload::make_campaign(campaign, topo, rng, scale);
    source_label = "campaign " + campaign;
  }
  if (const std::string error = seq.validate(topo.n_leaves());
      !error.empty()) {
    std::fprintf(stderr, "trace invalid for N=%llu: %s\n",
                 static_cast<unsigned long long>(topo.n_leaves()),
                 error.c_str());
    return 1;
  }

  sim::EngineOptions options;
  options.record_slowdowns = cli.get_flag("slowdowns");
  sim::Engine engine(topo, options);
  auto allocator = core::make_allocator(spec, topo, cli.get_u64("seed"));
  const auto result = engine.run(seq, *allocator);

  std::vector<sim::SimResult> results{result};
  sim::results_table(results).print(
      std::cout, "replay of " + source_label + " (" +
                     std::to_string(seq.size()) + " events)");
  if (options.record_slowdowns) {
    std::printf("\nslowdowns: mean %.3f, worst %llu over %zu completed tasks\n",
                result.mean_slowdown,
                static_cast<unsigned long long>(result.worst_slowdown),
                result.task_slowdowns.size());
  }
  return 0;
}
