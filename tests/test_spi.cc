// SPI extension tests (paper section 7 future work): the mode-0 stack
// verifies at both levels; the mode-1 (CPHA mismatch) controller is caught
// by the byte-level verifier — a second protocol expressed entirely in the
// same ESI/ESM languages and checked by the same model checker.

#include <gtest/gtest.h>

#include "src/spi/verify.h"

namespace efeu::spi {
namespace {

std::string Describe(const SpiVerifyResult& result) {
  std::string out;
  if (result.safety.violation.has_value()) {
    out += "safety: " + result.safety.violation->message + "\n";
    for (const std::string& step : result.safety.violation->trace) {
      out += "  " + step + "\n";
    }
  }
  if (result.liveness.violation.has_value()) {
    out += "liveness: " + result.liveness.violation->message;
  }
  return out;
}

TEST(SpiVerifier, ByteLevelPasses) {
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kByte;
  config.num_ops = 2;
  DiagnosticEngine diag;
  SpiVerifyResult result = RunSpiVerification(config, diag);
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  EXPECT_TRUE(result.ok) << Describe(result);
  EXPECT_GT(result.safety.states_stored, 0u);
}

TEST(SpiVerifier, DriverLevelPasses) {
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kDriver;
  config.num_ops = 2;
  DiagnosticEngine diag;
  SpiVerifyResult result = RunSpiVerification(config, diag);
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(SpiVerifier, Mode1ControllerFailsByteLevel) {
  // The clock-phase mismatch: a mode-1 controller against the mode-0 device
  // corrupts bytes in both directions; the verifier catches it.
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kByte;
  config.num_ops = 1;
  config.mode1_controller = true;
  DiagnosticEngine diag;
  SpiVerifyResult result = RunSpiVerification(config, diag);
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  EXPECT_FALSE(result.ok);
}

TEST(SpiVerifier, Mode1ControllerFailsDriverLevel) {
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kDriver;
  config.num_ops = 2;
  config.mode1_controller = true;
  DiagnosticEngine diag;
  SpiVerifyResult result = RunSpiVerification(config, diag);
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  EXPECT_FALSE(result.ok);
}

// Regression: RunSpiVerification used to ignore caller options entirely
// (building fresh CheckerOptions for both passes), unlike the I2C runner. A
// caller-supplied state budget must reach both checker passes.
TEST(SpiVerifier, BaseOptionsReachThePasses) {
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kByte;
  config.num_ops = 2;
  check::CheckerOptions base;
  base.max_states = 5;
  DiagnosticEngine diag;
  SpiVerifyResult result = RunSpiVerification(config, diag, base);
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  EXPECT_TRUE(result.safety.budget_exhausted);
  EXPECT_LE(result.safety.states_stored, 5u);
  EXPECT_TRUE(result.liveness.budget_exhausted);
}

TEST(SpiVerifier, DeterministicStateCounts) {
  SpiVerifyConfig config;
  config.level = SpiVerifyLevel::kByte;
  config.num_ops = 1;
  uint64_t states[2];
  for (int round = 0; round < 2; ++round) {
    DiagnosticEngine diag;
    auto vs = BuildSpiVerifier(config, diag);
    ASSERT_NE(vs, nullptr) << diag.RenderAll();
    check::CheckResult result = vs->system().Check();
    ASSERT_TRUE(result.ok);
    states[round] = result.states_stored;
  }
  EXPECT_EQ(states[0], states[1]);
}

}  // namespace
}  // namespace efeu::spi
