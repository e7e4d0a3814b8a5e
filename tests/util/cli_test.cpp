#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace partree::util {
namespace {

bool parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliTest, DefaultsApply) {
  Cli cli;
  cli.option("n", "machine size", "64");
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_EQ(cli.get_u64("n"), 64u);
  EXPECT_TRUE(cli.has("n"));
}

TEST(CliTest, SpaceSeparatedValue) {
  Cli cli;
  cli.option("n", "machine size", "64");
  ASSERT_TRUE(parse(cli, {"--n", "128"}));
  EXPECT_EQ(cli.get_u64("n"), 128u);
}

TEST(CliTest, EqualsValue) {
  Cli cli;
  cli.option("n", "machine size", "64");
  ASSERT_TRUE(parse(cli, {"--n=256"}));
  EXPECT_EQ(cli.get_u64("n"), 256u);
}

TEST(CliTest, Flags) {
  Cli cli;
  cli.flag("verbose", "talk more");
  ASSERT_TRUE(parse(cli, {"--verbose"}));
  EXPECT_TRUE(cli.get_flag("verbose"));

  Cli cli2;
  cli2.flag("verbose", "talk more");
  ASSERT_TRUE(parse(cli2, {}));
  EXPECT_FALSE(cli2.get_flag("verbose"));
}

TEST(CliTest, UnknownOptionRejected) {
  Cli cli;
  cli.option("n", "machine size", "64");
  EXPECT_FALSE(parse(cli, {"--typo", "3"}));
}

TEST(CliTest, MissingValueRejected) {
  Cli cli;
  cli.option("n", "machine size");
  EXPECT_FALSE(parse(cli, {"--n"}));
}

TEST(CliTest, PositionalRejected) {
  Cli cli;
  EXPECT_FALSE(parse(cli, {"stray"}));
}

TEST(CliTest, HelpReturnsFalse) {
  Cli cli;
  cli.option("n", "machine size", "64");
  EXPECT_FALSE(parse(cli, {"--help"}));
}

TEST(CliTest, DoubleValues) {
  Cli cli;
  cli.option("rate", "arrival rate", "1.5");
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
}

TEST(CliTest, MalformedNumberThrows) {
  Cli cli;
  cli.option("n", "machine size", "abc");
  ASSERT_TRUE(parse(cli, {}));
  EXPECT_THROW((void)cli.get_u64("n"), std::invalid_argument);
}

TEST(CliTest, U64List) {
  Cli cli;
  cli.option("sizes", "size list", "1,2,4");
  ASSERT_TRUE(parse(cli, {}));
  const auto sizes = cli.get_u64_list("sizes");
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 4u);
}

// A value is checked against its option's kind when parsed, so a
// malformed number or a bad machine size is a usage error that names the
// option instead of an exception or an assertion inside the library.
TEST(CliTest, Pow2KindRejectsBadValues) {
  struct Case {
    Cli::Kind kind;
    std::string bad;
    std::string expects;
  };
  const std::vector<Case> cases = {
      {Cli::Kind::kPow2, "100", "a power of two >= 1"},
      {Cli::Kind::kPow2, "0", "a power of two >= 1"},
      {Cli::Kind::kPow2, "abc", "a power of two >= 1"},
      {Cli::Kind::kU64, "abc", "an unsigned integer"},
      {Cli::Kind::kU64, "-1", "an unsigned integer"},
      {Cli::Kind::kU64, "1.5", "an unsigned integer"},
      {Cli::Kind::kPositive, "0", "an unsigned integer >= 1"},
      {Cli::Kind::kPositive, "abc", "an unsigned integer >= 1"},
      {Cli::Kind::kDouble, "abc", "a finite number"},
      {Cli::Kind::kDouble, "", "a finite number"},
      {Cli::Kind::kDouble, "nan", "a finite number"},
      {Cli::Kind::kDouble, "inf", "a finite number"},
      {Cli::Kind::kDouble, "-inf", "a finite number"},
  };
  for (const Case& c : cases) {
    Cli cli;
    cli.option("n", "a value", "64", c.kind);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(cli, {"--n", c.bad.c_str()})) << c.bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "option --n expects " + c.expects + ", got '" + c.bad +
                  "'"),
              std::string::npos)
        << c.bad;
  }
  Cli cli;
  cli.option("n", "machine size", "1", Cli::Kind::kPow2);
  cli.option("count", "a count", "1", Cli::Kind::kU64);
  cli.option("trials", "a trial count", "1", Cli::Kind::kPositive);
  cli.option("rate", "a rate", "1", Cli::Kind::kDouble);
  ASSERT_TRUE(parse(cli, {"--n", "64", "--count", "7", "--trials", "3",
                          "--rate", "0.5"}));
  EXPECT_EQ(cli.get_u64("n"), 64u);
  EXPECT_EQ(cli.get_u64("count"), 7u);
  EXPECT_EQ(cli.get_u64("trials"), 3u);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.5);
}

// Values only the library can judge (an allocator spec, a campaign name)
// are checked by handing them to it; its std::invalid_argument becomes a
// usage error that names the option.
TEST(CliTest, CheckOptionNamesTheOptionOnInvalidArgument) {
  testing::internal::CaptureStderr();
  EXPECT_FALSE(check_option("allocator", [] {
    throw std::invalid_argument("unknown allocator spec: 'bogus'");
  }));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "option --allocator: unknown allocator spec: 'bogus'\n");
  EXPECT_TRUE(check_option("allocator", [] {}));
}

TEST(CliTest, Pow2ListKindRejectsAnyBadEntry) {
  struct Case {
    Cli::Kind kind;
    std::string bad;
    std::string expects;
  };
  const std::vector<Case> cases = {
      {Cli::Kind::kPow2List, "4,100",
       "a comma-separated list of powers of two >= 1"},
      {Cli::Kind::kU64List, "4,x",
       "a comma-separated list of unsigned integers"},
  };
  for (const Case& c : cases) {
    Cli cli;
    cli.option("sizes", "a list", "4,16", c.kind);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(cli, {"--sizes", c.bad.c_str()})) << c.bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "option --sizes expects " + c.expects + ", got '" + c.bad +
                  "'"),
              std::string::npos)
        << c.bad;
  }

  Cli good;
  good.option("sizes", "machine sizes", "4,16", Cli::Kind::kPow2List);
  good.option("counts", "counts", "1", Cli::Kind::kU64List);
  ASSERT_TRUE(parse(good, {"--counts", "1,2"}));
  EXPECT_EQ(good.get_u64_list("sizes"), (std::vector<std::uint64_t>{4, 16}));
  EXPECT_EQ(good.get_u64_list("counts"), (std::vector<std::uint64_t>{1, 2}));
}

// A power of two above 2^20 names a machine whose tree arrays cannot be
// allocated, so both kinds reject it by name, after the power-of-two
// check; 2^20 itself, the largest machine anything builds, passes.
TEST(CliTest, Pow2KindsRejectMachinesAboveTheLargest) {
  struct Case {
    Cli::Kind kind;
    std::string value;
    std::string got;
  };
  const std::vector<Case> cases = {
      {Cli::Kind::kPow2, "2097152", "2097152"},
      {Cli::Kind::kPow2, "4611686018427387904", "4611686018427387904"},
      {Cli::Kind::kPow2List, "4, 2097152,16", "2097152"},
  };
  for (const Case& c : cases) {
    Cli cli;
    cli.option("n", "machine size", "64", c.kind);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(cli, {"--n", c.value.c_str()})) << c.value;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("option --n must be at most 1048576, got " + c.got +
                       "\nusage: prog"),
              std::string::npos)
        << err;
  }

  Cli largest;
  largest.option("n", "machine size", "1048576", Cli::Kind::kPow2);
  largest.option("sizes", "machine sizes", "1,1048576", Cli::Kind::kPow2List);
  ASSERT_TRUE(parse(largest, {}));
  EXPECT_EQ(largest.get_u64("n"), 1048576u);
}

TEST(CliTest, KindChecksTheDefaultToo) {
  Cli cli;
  cli.option("n", "machine size", "100", Cli::Kind::kPow2);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse(cli, {}));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("option --n"),
            std::string::npos);
}

// Redeclaring a name used to silently keep the stale help/default via
// map::emplace; it must be an assertion failure instead.
TEST(CliDeathTest, OptionRedeclarationAsserts) {
  Cli cli;
  cli.option("n", "machine size", "64");
  EXPECT_DEATH(cli.option("n", "different help", "128"),
               "Cli name redeclared: --n");
}

TEST(CliDeathTest, FlagRedeclarationAsserts) {
  Cli cli;
  cli.flag("verbose", "talk more");
  EXPECT_DEATH(cli.flag("verbose", "again"), "Cli name redeclared: --verbose");
}

TEST(CliDeathTest, OptionThenFlagWithSameNameAsserts) {
  Cli cli;
  cli.option("csv", "csv output path");
  EXPECT_DEATH(cli.flag("csv", "emit csv"), "Cli name redeclared: --csv");
}

TEST(CliTest, UsageMentionsOptions) {
  Cli cli;
  cli.option("n", "machine size", "64");
  cli.flag("csv", "emit csv");
  const std::string usage = cli.usage("prog");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("--csv"), std::string::npos);
  EXPECT_NE(usage.find("machine size"), std::string::npos);
  EXPECT_NE(usage.find("default: 64"), std::string::npos);
}

}  // namespace
}  // namespace partree::util
