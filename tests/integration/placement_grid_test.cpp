// Golden pin of where every allocator puts its tasks.
//
// Runs each spec in core::known_allocator_specs() on a 4,000-event closed
// loop at 85% utilization in two size shapes -- geometric(0.5) sizes, and
// sizes uniform over the top 8 size classes -- at N = 2^8 and 2^12, plus
// the top-8 shape at N = 2^16, and prints one line per run: spec, shape,
// N, max load, task moves and the placement digest. A drained run's
// final state digest is the same for every allocator, so the placement
// digest is what tells a changed tie-break apart. If a change to
// placement is intentional, regenerate the golden file from the failure
// output.
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "sim/engine.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace partree {
namespace {

std::string render_placement_grid() {
  struct Shape {
    std::string_view name;
    std::uint32_t log_n;
  };
  const Shape shapes[] = {{"geo", 8},  {"top8", 8},  {"geo", 12},
                          {"top8", 12}, {"top8", 16}};
  std::ostringstream out;
  for (const Shape& shape : shapes) {
    const tree::Topology topo(std::uint64_t{1} << shape.log_n);
    workload::ClosedLoopParams params;
    params.n_events = 4000;
    params.utilization = 0.85;
    params.size = shape.name == "geo"
                      ? workload::SizeSpec::geometric(0.5, shape.log_n)
                      : workload::SizeSpec::uniform_log(shape.log_n - 7,
                                                        shape.log_n);
    util::Rng rng(1);
    const core::TaskSequence seq = workload::closed_loop(topo, params, rng);
    for (const std::string& spec : core::known_allocator_specs()) {
      auto allocator = core::make_allocator(spec, topo);
      sim::Engine engine(topo, sim::EngineOptions{.record_digests = true});
      const sim::SimResult r = engine.run(seq, *allocator);
      out << spec << " " << shape.name << " N=2^" << shape.log_n
          << " max_load=" << r.max_load << " moves=" << r.migration_count
          << " placement=" << util::digest_hex(r.placement_digest) << "\n";
    }
  }
  return out.str();
}

TEST(PlacementGridTest, PlacementDigestsMatchGoldenFile) {
  const std::string path =
      std::string(PARTREE_GOLDEN_DIR) + "/placement_grid.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot read golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();

  const std::string actual = render_placement_grid();
  EXPECT_EQ(actual, golden.str())
      << "Placement digests drifted from the golden file. If the change is "
         "intentional, update " << path << " to:\n" << actual;
}

}  // namespace
}  // namespace partree
