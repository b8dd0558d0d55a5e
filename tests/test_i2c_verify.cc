// End-to-end verification tests: every stack level at every abstraction
// passes; the quirk configurations fail exactly the way the paper describes
// (section 4.5).

#include <gtest/gtest.h>

#include "src/i2c/verify.h"

namespace efeu::i2c {
namespace {

std::string Describe(const VerifyRunResult& result) {
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

VerifyRunResult RunConfig(const VerifyConfig& config) {
  DiagnosticEngine diag;
  VerifyRunResult result = RunVerification(config, diag);
  EXPECT_FALSE(diag.HasErrors()) << diag.RenderAll();
  return result;
}

TEST(SymbolVerifier, FullStackPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kSymbol;
  config.num_ops = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
  EXPECT_GT(result.safety.states_stored, 0u);
}

TEST(SymbolVerifier, FullStackWithStretchingPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kSymbol;
  config.num_ops = 2;
  config.stretch_input = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(SymbolVerifier, RaspberryPiControllerFailsWithStretching) {
  // The Raspberry Pi hardware controller does not handle clock stretching;
  // the standard Symbol verifier detects problems in the modified stack.
  VerifyConfig config;
  config.level = VerifyLevel::kSymbol;
  config.num_ops = 2;
  config.stretch_input = true;
  config.no_clock_stretching = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_FALSE(result.ok);
}

TEST(SymbolVerifier, RaspberryPiControllerPassesWithoutStretching) {
  // Removing clock stretching from the input space models a responder that
  // never stretches; then the verifier passes (paper section 4.5).
  VerifyConfig config;
  config.level = VerifyLevel::kSymbol;
  config.num_ops = 2;
  config.stretch_input = false;
  config.no_clock_stretching = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(ByteVerifier, FullStackPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.num_ops = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(ByteVerifier, SymbolAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.abstraction = VerifyAbstraction::kSymbol;
  config.num_ops = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(ByteVerifier, AbstractionShrinksStateSpace) {
  VerifyConfig full;
  full.level = VerifyLevel::kByte;
  full.num_ops = 2;
  VerifyConfig abstracted = full;
  abstracted.abstraction = VerifyAbstraction::kSymbol;
  VerifyRunResult full_result = RunConfig(full);
  VerifyRunResult abs_result = RunConfig(abstracted);
  ASSERT_TRUE(full_result.ok) << Describe(full_result);
  ASSERT_TRUE(abs_result.ok) << Describe(abs_result);
  EXPECT_LT(abs_result.safety.states_stored, full_result.safety.states_stored);
}

TEST(ByteVerifier, Ks0127WithStandardControllerDeadlocks) {
  // Standard controller + KS0127 responder: the system can enter an invalid
  // end state (paper section 4.5).
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.num_ops = 1;
  config.ks0127_responder = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_FALSE(result.safety.ok);
  ASSERT_TRUE(result.safety.violation.has_value());
  EXPECT_EQ(result.safety.violation->kind, check::ViolationKind::kInvalidEndState);
  EXPECT_FALSE(result.safety.violation->trace.empty());
}

TEST(ByteVerifier, Ks0127WithCompatControllerPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.num_ops = 1;
  config.ks0127_responder = true;
  config.ks0127_compat_controller = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(TransactionVerifier, ByteAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kTransaction;
  config.abstraction = VerifyAbstraction::kByte;
  config.num_ops = 2;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(TransactionVerifier, SymbolAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kTransaction;
  config.abstraction = VerifyAbstraction::kSymbol;
  config.num_ops = 1;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(TransactionVerifier, FullStackPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kTransaction;
  config.num_ops = 1;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(TransactionVerifier, Ks0127StackFullyVerifies) {
  // Above the modified Byte layers the Transaction layer is used unmodified
  // and the stack fully verifies (paper section 4.5).
  VerifyConfig config;
  config.level = VerifyLevel::kTransaction;
  config.num_ops = 1;
  config.max_len = 1;
  config.ks0127_responder = true;
  config.ks0127_compat_controller = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, TransactionAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, ByteAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kByte;
  config.num_ops = 2;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, SymbolAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kSymbol;
  config.num_ops = 1;
  config.max_len = 1;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, FullStackPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.num_ops = 1;
  config.max_len = 1;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, TwoEepromsTransactionAbstractionPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_eeproms = 2;
  config.num_ops = 2;
  config.max_len = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

TEST(EepVerifier, VariablePayloadPasses) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 2;
  config.variable_payload = true;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

// The acceptance configuration of the fault-injection work: the quickstart
// verification (EepDriver level, Transaction abstraction, 2 ops, up to 4
// bytes) stays deadlock- and livelock-free when the checker additionally
// explores every single-fault schedule (any one acknowledged bus event may
// NACK). The relaxed CWorld oracle still requires every operation to
// terminate with OK or NACK.
TEST(EepVerifier, QuiescesUnderSingleFaultSchedules) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 4;
  config.fault_events = 1;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);

  // The fault branches genuinely enlarge the explored space.
  VerifyConfig no_faults = config;
  no_faults.fault_events = 0;
  VerifyRunResult baseline = RunConfig(no_faults);
  ASSERT_TRUE(baseline.ok) << Describe(baseline);
  EXPECT_GT(result.safety.states_stored, baseline.safety.states_stored);
}

TEST(EepVerifier, QuiescesUnderDoubleFaultSchedules) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 2;
  config.fault_events = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

// Reset convergence (the supervision tentpole's proof obligation): with the
// soft-reset event enabled as a nondeterministic choice at every scheduling
// point, the driver must still complete every operation — a reset fired at
// any instant returns the whole stack to a state from which the pending
// operation reruns and terminates with a correct EEPROM image.
TEST(EepVerifier, ConvergesUnderSingleResetSchedules) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 4;
  config.reset_events = 1;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);

  // The reset branches genuinely enlarge the explored space.
  VerifyConfig no_resets = config;
  no_resets.reset_events = 0;
  VerifyRunResult baseline = RunConfig(no_resets);
  ASSERT_TRUE(baseline.ok) << Describe(baseline);
  EXPECT_GT(result.safety.states_stored, baseline.safety.states_stored);
}

TEST(EepVerifier, ConvergesUnderDoubleResetSchedules) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 2;
  config.reset_events = 2;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

// Faults and resets compose: a NACK fault may force the recovery path and a
// reset may strike while that recovery is in flight.
TEST(EepVerifier, ConvergesUnderMixedFaultAndResetSchedules) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 2;
  config.fault_events = 1;
  config.reset_events = 1;
  VerifyRunResult result = RunConfig(config);
  EXPECT_TRUE(result.ok) << Describe(result);
}

// Hash compaction on the full Byte stack: the same states in 8 bytes each.
TEST(ByteVerifier, FingerprintOnlyShrinksBytesPerState) {
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.num_ops = 2;
  // COLLAPSE off on both sides: this test compares hash compaction against
  // full snapshot vectors (compressed-tuple storage has its own tests).
  check::CheckerOptions uncompressed;
  uncompressed.collapse = false;
  DiagnosticEngine diag_full;
  VerifyRunResult full = RunVerification(config, diag_full, uncompressed);
  ASSERT_TRUE(full.ok) << Describe(full);

  check::CheckerOptions base;
  base.fingerprint_only = true;
  base.collapse = false;
  DiagnosticEngine diag;
  VerifyRunResult compact = RunVerification(config, diag, base);
  ASSERT_TRUE(compact.ok) << Describe(compact);
  EXPECT_EQ(compact.safety.states_stored, full.safety.states_stored);
  EXPECT_EQ(compact.safety.state_bytes, 8 * compact.safety.states_stored);
  // The acceptance bar: at least 4x less memory per stored state.
  EXPECT_GE(full.safety.state_bytes, 4 * compact.safety.state_bytes);
}

// -- Parallel verification --------------------------------------------------
// RunVerificationSuite is the checker's parallelism: every config gets its own
// verifier system and checker tables, so what runs beside a config on the
// pool cannot change its outcome.

// Four copies of the full Byte-layer stack on four pool threads each store
// exactly the states and take exactly the transitions of the sequential run.
TEST(ParallelVerify, ByteFullStackMatchesSequential) {
  VerifyConfig config;
  config.level = VerifyLevel::kByte;
  config.num_ops = 2;
  VerifyRunResult sequential = RunConfig(config);
  ASSERT_TRUE(sequential.ok) << Describe(sequential);

  std::vector<VerifySuiteItem> items =
      RunVerificationSuite(std::vector<VerifyConfig>(4, config), {}, /*pool_threads=*/4);
  ASSERT_EQ(items.size(), 4u);
  for (const VerifySuiteItem& item : items) {
    ASSERT_TRUE(item.error.empty()) << item.error;
    ASSERT_TRUE(item.result.ok) << Describe(item.result);
    EXPECT_EQ(item.result.safety.states_stored, sequential.safety.states_stored);
    EXPECT_EQ(item.result.safety.transitions, sequential.safety.transitions);
    EXPECT_EQ(item.result.liveness.states_stored, sequential.liveness.states_stored);
    EXPECT_EQ(item.result.liveness.transitions, sequential.liveness.transitions);
  }
}

// The KS0127 quirk deadlock, run on the pool between passing configs, is
// found with the sequential run's violation and counterexample.
TEST(ParallelVerify, Ks0127DeadlockFoundInParallel) {
  VerifyConfig quirk;
  quirk.level = VerifyLevel::kByte;
  quirk.num_ops = 1;
  quirk.ks0127_responder = true;
  VerifyRunResult sequential = RunConfig(quirk);
  ASSERT_TRUE(sequential.safety.violation.has_value());
  VerifyConfig plain = quirk;
  plain.ks0127_responder = false;

  std::vector<VerifySuiteItem> items =
      RunVerificationSuite({plain, quirk, plain, quirk}, {}, /*pool_threads=*/4);
  ASSERT_EQ(items.size(), 4u);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].error.empty()) << items[i].error;
    if (i % 2 == 0) {
      EXPECT_TRUE(items[i].result.ok) << i << ": " << Describe(items[i].result);
      continue;
    }
    const check::CheckResult& safety = items[i].result.safety;
    EXPECT_FALSE(safety.ok) << i;
    ASSERT_TRUE(safety.violation.has_value()) << i;
    EXPECT_EQ(safety.violation->kind, check::ViolationKind::kInvalidEndState) << i;
    EXPECT_EQ(safety.violation->trace, sequential.safety.violation->trace) << i;
  }
}

// Determinism across pool thread counts on the EepDriver/Transaction verifier
// (with fault branches, so native nondet is in the mix): 1 and 4 pool threads
// store the same states, take the same transitions and reach the same
// verdicts; the fingerprint-only table agrees with the full one.
TEST(ParallelVerify, EepTransactionDeterministicAcrossThreadCounts) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 4;
  config.fault_events = 1;
  VerifyConfig shorter = config;
  shorter.max_len = 2;
  const std::vector<VerifyConfig> configs = {config, shorter, config, shorter};

  std::vector<VerifySuiteItem> one = RunVerificationSuite(configs, {}, /*pool_threads=*/1);
  std::vector<VerifySuiteItem> four = RunVerificationSuite(configs, {}, /*pool_threads=*/4);
  check::CheckerOptions compact;
  compact.fingerprint_only = true;
  std::vector<VerifySuiteItem> fingerprint =
      RunVerificationSuite(configs, compact, /*pool_threads=*/4);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(four.size(), configs.size());
  ASSERT_EQ(fingerprint.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(one[i].error.empty()) << one[i].error;
    ASSERT_TRUE(one[i].result.ok) << i << ": " << Describe(one[i].result);
    EXPECT_TRUE(four[i].result.ok) << i << ": " << Describe(four[i].result);
    EXPECT_EQ(four[i].result.safety.states_stored, one[i].result.safety.states_stored) << i;
    EXPECT_EQ(four[i].result.safety.transitions, one[i].result.safety.transitions) << i;
    EXPECT_EQ(four[i].result.liveness.states_stored, one[i].result.liveness.states_stored) << i;
    EXPECT_EQ(four[i].result.liveness.transitions, one[i].result.liveness.transitions) << i;
    EXPECT_TRUE(fingerprint[i].result.ok) << i << ": " << Describe(fingerprint[i].result);
    EXPECT_EQ(fingerprint[i].result.safety.states_stored, one[i].result.safety.states_stored)
        << i;
  }
}

TEST(VerifySuite, PoolRunsCombosIndependently) {
  std::vector<VerifyConfig> configs;
  VerifyConfig symbol;
  symbol.level = VerifyLevel::kSymbol;
  symbol.num_ops = 2;
  configs.push_back(symbol);
  VerifyConfig byte_abs;
  byte_abs.level = VerifyLevel::kByte;
  byte_abs.abstraction = VerifyAbstraction::kSymbol;
  byte_abs.num_ops = 2;
  configs.push_back(byte_abs);
  VerifyConfig quirk;
  quirk.level = VerifyLevel::kByte;
  quirk.num_ops = 1;
  quirk.ks0127_responder = true;
  configs.push_back(quirk);

  std::vector<VerifySuiteItem> items = RunVerificationSuite(configs, {}, /*pool_threads=*/3);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_TRUE(items[0].error.empty()) << items[0].error;
  EXPECT_TRUE(items[0].result.ok);
  EXPECT_TRUE(items[1].result.ok);
  // The quirk combo must still fail with the deadlock, in input order.
  EXPECT_FALSE(items[2].result.safety.ok);
  ASSERT_TRUE(items[2].result.safety.violation.has_value());
  EXPECT_EQ(items[2].result.safety.violation->kind, check::ViolationKind::kInvalidEndState);
}

}  // namespace
}  // namespace efeu::i2c
