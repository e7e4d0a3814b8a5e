// Reallocation accounting: a plan lists only the tasks that move, so a
// round's move count is its plan's length, and a repack that moves
// nothing is still a round. The engine's SimResult counts both.
#include <gtest/gtest.h>

#include "core/drealloc.hpp"
#include "core/sequence.hpp"
#include "sim/engine.hpp"

namespace partree::sim {
namespace {

TEST(ReallocAccountingTest, ZeroMoveRepackRecordsZero) {
  // Two size-4 arrivals on N=4 with d=1: the second arrival pushes the
  // arrived volume past dN and triggers a repack, but both tasks already
  // sit exactly where A_R puts them (copy k, root node), so the round
  // moves nothing -- and must still count as a round.
  const tree::Topology topo(4);
  core::TaskSequence seq;
  seq.arrive(4);
  seq.arrive(4);

  Engine engine(topo, EngineOptions{.debug_checks = true});
  core::DReallocAllocator alloc(topo, core::ReallocParam::finite(1));
  const SimResult result = engine.run(seq, alloc);

  EXPECT_EQ(result.reallocation_count, 1u);
  EXPECT_EQ(result.migration_count, 0u);
  EXPECT_EQ(result.migrated_size, 0u);
}

}  // namespace
}  // namespace partree::sim
