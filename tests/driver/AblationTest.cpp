//===- tests/driver/AblationTest.cpp --------------------------------------===//
//
// The ablation matrix and the flag parser share one table: every matrix
// entry's flag, applied to the default options, selects exactly that
// entry's configuration.
//
//===----------------------------------------------------------------------===//

#include "driver/Ablation.h"

#include "gtest/gtest.h"

using namespace s1lisp;

namespace {

TEST(AblationMatrix, EveryFlagSelectsItsConfiguration) {
  std::vector<driver::AblationConfig> Matrix = driver::ablationMatrix();
  ASSERT_EQ(Matrix.front().Name, "O2");
  EXPECT_EQ(Matrix.front().Flag, "");
  for (const driver::AblationConfig &C : Matrix) {
    driver::CompilerOptions O;
    if (!C.Flag.empty()) {
      ASSERT_TRUE(driver::applyCompilerFlag(C.Flag, O)) << C.Name;
    }
    EXPECT_EQ(driver::optionsFingerprint(O), driver::optionsFingerprint(C.Opts))
        << C.Name << " (" << C.Flag << ")";
  }
}

} // namespace
