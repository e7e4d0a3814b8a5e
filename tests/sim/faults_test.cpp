// Fault-plan grammar, injector bookkeeping, and repro-file round trips.
#include <gtest/gtest.h>

#include <string>

#include "sim/faults.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace partree::sim {
namespace {

TEST(FaultPlanTest, ParsesEveryKindAndRoundTrips) {
  const char* plans[] = {
      "alloc_fail@1",
      "cancel@7",
      "corrupt:load_tree@3",
      "corrupt:active_map@4",
      "corrupt:copy_set@5",
      "alloc_fail@2,cancel@9,corrupt:copy_set@40",
  };
  for (const char* text : plans) {
    const FaultPlan plan = FaultPlan::parse(text);
    EXPECT_EQ(plan.to_string(), text);
    EXPECT_FALSE(plan.empty());
  }
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanTest, RejectsMalformedInput) {
  EXPECT_THROW((void)FaultPlan::parse("alloc_fail"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("alloc_fail@"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("alloc_fail@x"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("warp_core@3"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("perturb:pool@6"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("cancel@3,"), std::invalid_argument);
  // Steps must be strictly increasing across the plan.
  EXPECT_THROW((void)FaultPlan::parse("cancel@5,alloc_fail@5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("cancel@5,alloc_fail@4"),
               std::invalid_argument);
}

TEST(FaultPlanTest, LookupAndCorruptionPredicate) {
  const FaultPlan plan = FaultPlan::parse("alloc_fail@2,corrupt:load_tree@8");
  ASSERT_NE(plan.at(2), nullptr);
  EXPECT_EQ(plan.at(2)->kind, FaultKind::kAllocFail);
  EXPECT_EQ(plan.at(3), nullptr);
  ASSERT_NE(plan.at(8), nullptr);
  EXPECT_TRUE(plan.has_corruption());
  EXPECT_FALSE(FaultPlan::parse("cancel@1,alloc_fail@2").has_corruption());
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministicAndInRange) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    const FaultPlan pa = random_fault_plan(a, 100, true);
    const FaultPlan pb = random_fault_plan(b, 100, true);
    EXPECT_EQ(pa.to_string(), pb.to_string());
    ASSERT_EQ(pa.size(), 1u);
    EXPECT_GE(pa.faults()[0].step, 1u);
    EXPECT_LT(pa.faults()[0].step, 100u);
  }
  // Without corruption, every draw is one of the two recoverable kinds,
  // and both occur.
  util::Rng c(7);
  bool drew_alloc_fail = false;
  bool drew_cancel = false;
  for (int i = 0; i < 50; ++i) {
    const FaultKind kind = random_fault_plan(c, 100, false).faults()[0].kind;
    EXPECT_TRUE(kind == FaultKind::kAllocFail || kind == FaultKind::kCancel)
        << fault_kind_name(kind);
    drew_alloc_fail |= kind == FaultKind::kAllocFail;
    drew_cancel |= kind == FaultKind::kCancel;
  }
  EXPECT_TRUE(drew_alloc_fail);
  EXPECT_TRUE(drew_cancel);
}

TEST(FaultInjectorTest, WalksThePlanOnceAndTracksApplication) {
  FaultInjector injector(FaultPlan::parse("alloc_fail@2,cancel@5"));
  injector.begin_run();
  EXPECT_EQ(injector.on_step(0), nullptr);
  EXPECT_EQ(injector.on_step(1), nullptr);
  const Fault* first = injector.on_step(2);
  ASSERT_NE(first, nullptr);
  injector.record_applied(*first, false);
  EXPECT_EQ(injector.on_step(3), nullptr);
  const Fault* second = injector.on_step(5);
  ASSERT_NE(second, nullptr);
  injector.record_applied(*second, true);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.skipped(), 1u);
  EXPECT_EQ(injector.context(), "cancel@5");

  // begin_run resets everything for the next replay.
  injector.begin_run();
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_TRUE(injector.context().empty());
  EXPECT_NE(injector.on_step(2), nullptr);
}

// Only an APPLIED corruption counts: an inapplicable one beside an
// applied recoverable fault leaves corruption_applied() false.
TEST(FaultInjectorTest, TracksWhetherACorruptionApplied) {
  FaultInjector injector(
      FaultPlan::parse("alloc_fail@1,corrupt:copy_set@4,corrupt:load_tree@9"));
  injector.begin_run();
  injector.record_applied(*injector.on_step(1), true);
  injector.record_applied(*injector.on_step(4), false);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_FALSE(injector.corruption_applied());
  injector.record_applied(*injector.on_step(9), true);
  EXPECT_TRUE(injector.corruption_applied());
  EXPECT_EQ(injector.context(), "corrupt:load_tree@9");
}

TEST(FaultInjectorTest, SkipsStepsTheRunNeverReached) {
  // The engine consults increasing steps; a short run simply never asks
  // about late faults, and a re-run starts over.
  FaultInjector injector(FaultPlan::parse("cancel@3,alloc_fail@90"));
  injector.begin_run();
  ASSERT_NE(injector.on_step(3), nullptr);
  EXPECT_EQ(injector.on_step(10), nullptr);  // cursor moved past step 90? no:
  ASSERT_NE(injector.on_step(90), nullptr);  // still reachable in order
}

TEST(ReproFileTest, WriteReadRoundTrip) {
  ReproSpec spec;
  spec.n_pes = 128;
  spec.allocator = "dmix:d=2";
  spec.seed = 0xdeadbeefcafef00dULL;
  spec.faults = FaultPlan::parse("corrupt:copy_set@17");
  spec.expect = "caught";
  spec.baseline_digest = 0xffff'ffff'ffff'fffeULL;  // above 2^53: hex path
  const std::string text = write_repro(spec);
  EXPECT_NE(text.find("partree-detsim-repro-v1"), std::string::npos);
  EXPECT_EQ(read_repro(text), spec);
}

TEST(ReproFileTest, RejectsWrongSchemaAndBadFields) {
  ReproSpec spec;
  spec.n_pes = 64;
  spec.allocator = "basic";
  spec.faults = FaultPlan::parse("cancel@1");
  spec.expect = "recovered";
  std::string text = write_repro(spec);

  std::string wrong = text;
  const std::size_t pos = wrong.find("repro-v1");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 8, "repro-v9");
  EXPECT_THROW((void)read_repro(wrong), std::runtime_error);

  std::string bad_faults = text;
  const std::size_t fpos = bad_faults.find("cancel@1");
  ASSERT_NE(fpos, std::string::npos);
  bad_faults.replace(fpos, 8, "cancel@x");
  EXPECT_THROW((void)read_repro(bad_faults), std::runtime_error);

  // A machine size no replay can build.
  std::string bad_n_pes = text;
  const std::size_t at = bad_n_pes.find("\"n_pes\": 64");
  ASSERT_NE(at, std::string::npos);
  bad_n_pes.replace(at, 11, "\"n_pes\": 96");
  EXPECT_THROW((void)read_repro(bad_n_pes), std::runtime_error);

  // An outcome no replay can check, including the retired "crash".
  for (const std::string expect : {"bogus", "crash"}) {
    std::string bad_expect = text;
    const std::size_t epos = bad_expect.find("\"recovered\"");
    ASSERT_NE(epos, std::string::npos);
    bad_expect.replace(epos, 11, "\"" + expect + "\"");
    try {
      (void)read_repro(bad_expect);
      ADD_FAILURE() << "expect " << expect << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "expect field \"" + expect +
                    "\": expected divergence, caught or recovered"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW((void)read_repro(text));
}

TEST(DigestHexTest, RoundTripsAndRejectsGarbage) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 0x123ULL, 0xffffffffffffffffULL,
        14695981039346656037ULL}) {
    const std::string hex = util::digest_hex(v);
    EXPECT_EQ(hex.size(), 18u) << hex;
    EXPECT_EQ(util::parse_digest_hex(hex), v);
  }
  EXPECT_THROW((void)util::parse_digest_hex(""), std::runtime_error);
  EXPECT_THROW((void)util::parse_digest_hex("123"), std::runtime_error);
  EXPECT_THROW((void)util::parse_digest_hex("0x"), std::runtime_error);
  EXPECT_THROW((void)util::parse_digest_hex("0xgg"), std::runtime_error);
  EXPECT_THROW((void)util::parse_digest_hex("0x00000000000000000"),
               std::runtime_error);
}

}  // namespace
}  // namespace partree::sim
