// Shared gtest main for the partree test binaries.
//
// Death tests must fork, and the persistent sim::WorkerPool keeps worker
// threads alive across tests once any parallel region has run. gtest's
// default "fast" death-test style forks without exec -- unreliable with
// live threads (and noisy under ThreadSanitizer) -- so default every death
// test to the "threadsafe" style, which re-executes the test binary.
// Command-line --gtest_death_test_style still overrides.
//
// Crash dumps written by death tests default into a directory under the
// test temp dir rather than the working directory (ctest runs in the build
// tree). An explicit PARTREE_CRASH_DIR wins.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

int main(int argc, char** argv) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::testing::InitGoogleTest(&argc, argv);
  const std::string crash_dir = ::testing::TempDir() + "partree_crash_dumps";
  ::setenv("PARTREE_CRASH_DIR", crash_dir.c_str(), /*overwrite=*/0);
  return RUN_ALL_TESTS();
}
