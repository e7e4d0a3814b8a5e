#include "core/factory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace partree::core {
namespace {

TEST(FactoryTest, BuildsEveryKnownSpec) {
  const tree::Topology topo(16);
  for (const std::string& spec : known_allocator_specs()) {
    const AllocatorPtr alloc = make_allocator(spec, topo, 1);
    ASSERT_NE(alloc, nullptr) << spec;
    EXPECT_FALSE(alloc->name().empty()) << spec;
  }
}

TEST(FactoryTest, NamesMatchSpecs) {
  const tree::Topology topo(16);
  EXPECT_EQ(make_allocator("optimal", topo)->name(), "optimal");
  EXPECT_EQ(make_allocator("greedy", topo)->name(), "greedy");
  EXPECT_EQ(make_allocator("basic", topo)->name(), "basic");
  EXPECT_EQ(make_allocator("dmix:d=3", topo)->name(), "dmix(d=3)");
  EXPECT_EQ(make_allocator("dmix:d=inf", topo)->name(), "dmix(d=inf)");
  EXPECT_EQ(make_allocator("random", topo)->name(), "random");
  EXPECT_EQ(make_allocator("dchoice:k=2", topo)->name(), "dchoice(k=2)");
  EXPECT_EQ(make_allocator("leftmost", topo)->name(), "leftmost");
  EXPECT_EQ(make_allocator("roundrobin", topo)->name(), "roundrobin");
}

TEST(FactoryTest, WhitespaceTolerated) {
  const tree::Topology topo(8);
  EXPECT_EQ(make_allocator("dmix: d = 2 ", topo)->name(), "dmix(d=2)");
}

TEST(FactoryTest, UnknownNameThrows) {
  const tree::Topology topo(8);
  EXPECT_THROW((void)make_allocator("nonsense", topo), std::invalid_argument);
}

TEST(FactoryTest, MissingParameterThrows) {
  const tree::Topology topo(8);
  EXPECT_THROW((void)make_allocator("dmix", topo), std::invalid_argument);
  EXPECT_THROW((void)make_allocator("dchoice", topo), std::invalid_argument);
}

TEST(FactoryTest, MalformedParameterThrows) {
  const tree::Topology topo(8);
  EXPECT_THROW((void)make_allocator("dmix:d=abc", topo),
               std::invalid_argument);
  EXPECT_THROW((void)make_allocator("dmix:d", topo), std::invalid_argument);
  EXPECT_THROW((void)make_allocator("dchoice:k=0", topo),
               std::invalid_argument);
}

TEST(FactoryTest, SeedDifferentiatesRandomized) {
  const tree::Topology topo(16);
  MachineState state{topo};
  auto a = make_allocator("random", topo, 1);
  auto b = make_allocator("random", topo, 2);
  int same = 0;
  for (TaskId id = 0; id < 64; ++id) {
    if (a->place({id, 1}, state) == b->place({id, 1}, state)) ++same;
  }
  EXPECT_LT(same, 30);
}

}  // namespace
}  // namespace partree::core
