// Shared gtest main for the partree test binaries.
//
// Crash dumps written by death tests default into a directory under the
// test temp dir rather than the working directory (ctest runs in the build
// tree). An explicit PARTREE_CRASH_DIR wins.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const std::string crash_dir = ::testing::TempDir() + "partree_crash_dumps";
  ::setenv("PARTREE_CRASH_DIR", crash_dir.c_str(), /*overwrite=*/0);
  return RUN_ALL_TESTS();
}
