// Fault-plan grammar, injector bookkeeping, and repro-file round trips.
#include <gtest/gtest.h>

#include <string>
#include <utility>

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

/// read_repro's error message for `text`, or "" when it accepts it.
std::string repro_error(const std::string& text) {
  try {
    (void)read_repro(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// `text` with the row for `row`'s key replaced by `row`, or dropped when
/// `row` is the bare key.
std::string with_row(const std::string& text, const std::string& row) {
  const std::string key = row.substr(0, row.find(','));
  const std::size_t at = text.find("\n" + key + ",");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t end = text.find('\n', at + 1);
  return text.substr(0, at + 1) + (row == key ? "" : row + "\n") +
         text.substr(end + 1);
}

// Commas and quotes in a value (a two-fault plan, an allocator spec) are
// quoted by CsvWriter and read back by read_csv_lines.
TEST(ReproFileTest, WriteReadRoundTrip) {
  ReproSpec spec;
  spec.n_pes = 128;
  spec.allocator = "dmix:d=2,\"x\"";
  spec.seed = 0xdeadbeefcafef00dULL;
  spec.n_events = 300;
  spec.faults = FaultPlan::parse("alloc_fail@3,corrupt:copy_set@17");
  spec.expect = "caught";
  spec.baseline_placement_digest = 0xffff'ffff'ffff'fffeULL;
  const std::string text = write_repro(spec);
  EXPECT_EQ(text.substr(0, text.find('\n')), "schema,partree-detsim-repro-v2");
  EXPECT_NE(text.find("\nfaults,\"alloc_fail@3,corrupt:copy_set@17\"\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(read_repro(text), spec);
}

/// A good file: schema on line 1, then n_pes, allocator, seed, n_events,
/// faults, expect and the placement digest on lines 2-8.
std::string good_repro() {
  ReproSpec spec;
  spec.n_pes = 64;
  spec.allocator = "basic";
  spec.faults = FaultPlan::parse("cancel@1");
  spec.expect = "recovered";
  return write_repro(spec);
}

// Every error names its 1-based line.
TEST(ReproFileTest, RejectsWrongSchemaAndBadFields) {
  const std::string text = good_repro();
  EXPECT_EQ(repro_error(text), "");
  EXPECT_EQ(repro_error(with_row(text, "n_pes,1048576")), "");

  const std::string schema_error =
      "repro file line 1: expected the schema row "
      "\"schema,partree-detsim-repro-v2\"";
  std::string wrong = text;
  wrong.replace(wrong.find("repro-v2"), 8, "repro-v9");
  EXPECT_EQ(repro_error(wrong), schema_error);
  EXPECT_EQ(repro_error(""), schema_error);
  EXPECT_EQ(repro_error("kind,id,size\narrive,0,4\n"), schema_error);
  // A v1 (JSON) file is refused on its first line.
  EXPECT_EQ(repro_error("{\n  \"schema\": \"partree-detsim-repro-v1\"\n}\n"),
            schema_error);

  const std::pair<std::string, std::string> bad_rows[] = {
      {"n_pes,96", "n_pes field \"96\" on line 2: not a power of two"},
      {"n_pes,0", "n_pes field \"0\" on line 2: not a power of two"},
      {"n_pes,64.0",
       "n_pes field \"64.0\" on line 2: expected an unsigned integer"},
      // Above util::Cli's --n-pes ceiling: --replay aborted in the trees.
      {"n_pes,4611686018427387904",
       "n_pes field \"4611686018427387904\" on line 2: must be at most "
       "1048576"},
      {"seed,21",
       "seed field \"21\" on line 4: expected 0x and 1 to 16 hex digits"},
      {"n_events,-3",
       "n_events field \"-3\" on line 5: expected an unsigned integer"},
      {"faults,cancel@x",
       "faults field \"cancel@x\" on line 6: malformed fault step: cancel@x"},
      // An outcome no replay can check, including the retired "crash".
      {"expect,bogus",
       "expect field \"bogus\" on line 7: expected divergence, caught or "
       "recovered"},
      {"expect,crash",
       "expect field \"crash\" on line 7: expected divergence, caught or "
       "recovered"},
      {"baseline_placement_digest,0xzz",
       "baseline_placement_digest field \"0xzz\" on line 8: expected 0x and "
       "1 to 16 hex digits"},
  };
  for (const auto& [row, message] : bad_rows) {
    EXPECT_EQ(repro_error(with_row(text, row)), "repro file " + message);
  }
}

TEST(ReproFileTest, RejectsBadRowsAndMissingDuplicateOrUnknownKeys) {
  const std::string text = good_repro();
  EXPECT_EQ(repro_error(with_row(text, "seed,0x1,0x2")),
            "repro file line 4: expected 2 fields (key,value), got 3");
  EXPECT_EQ(repro_error(text + "alocator,basic\n"),
            "repro file line 9: unknown key \"alocator\"");
  EXPECT_EQ(repro_error(text + "seed,0x1\n"),
            "repro file line 9: duplicate key \"seed\" (first on line 4)");
  EXPECT_EQ(repro_error(text + "schema,partree-detsim-repro-v2\n"),
            "repro file line 9: duplicate key \"schema\" (first on line 1)");
  for (const std::string key :
       {"n_pes", "allocator", "seed", "n_events", "faults", "expect",
        "baseline_placement_digest"}) {
    EXPECT_EQ(repro_error(with_row(text, key)),
              "repro file line 7: the file ends with no " + key + " row");
  }
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
