// Tests for the esmlint static-analysis framework (src/analysis): every rule
// with a triggering and a silent case, suppression pragmas, Werror, golden
// diagnostic text, the shipped specifications linting clean, and the
// analyze-before-check fail-fast path beating the model checker to a seeded
// bug.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analysis.h"
#include "src/check/checker.h"
#include "src/i2c/stack.h"
#include "src/i2c/verify.h"
#include "src/ir/compile.h"
#include "src/spi/verify.h"
#include "src/support/diagnostics.h"

namespace efeu {
namespace {

constexpr char kPairEsi[] = R"esi(
layer Up;
layer Down;
interface <Up, Down> {
  => { i32 v; },
  <= { i32 r; }
};
)esi";

// Generic echo responder used by most Up-side rule tests.
constexpr char kEchoDown[] = R"esm(
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(q.v);
  goto end_reply;
}
)esm";

std::unique_ptr<ir::Compilation> CompilePair(const std::string& esm, std::string* rendered,
                                             bool allow_nondet = false) {
  DiagnosticEngine diag;
  ir::CompileOptions options;
  options.allow_nondet = allow_nondet;
  auto comp = ir::Compile(kPairEsi, esm, diag, options);
  if (rendered != nullptr) {
    *rendered = diag.RenderAll();
  }
  return comp;
}

struct LintOutcome {
  analysis::AnalysisResult result;
  std::string rendered;
};

// Compiles Up+Down sources against the shared ESI pair and lints the result.
LintOutcome Lint(const std::string& esm, const analysis::AnalysisOptions& options = {},
                 bool allow_nondet = false) {
  LintOutcome outcome;
  DiagnosticEngine diag;
  ir::CompileOptions copts;
  copts.allow_nondet = allow_nondet;
  auto comp = ir::Compile(kPairEsi, esm, diag, copts);
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  if (comp == nullptr) {
    return outcome;
  }
  outcome.result = analysis::AnalyzeCompilation(*comp, diag, options);
  outcome.rendered = diag.RenderAll();
  return outcome;
}

// ---- use-before-init -------------------------------------------------------

TEST(AnalysisUseBeforeInit, ReadBeforeAssignmentIsFlagged) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
  y = x + 1;
  r = UpTalkDown(y);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_GE(out.result.warnings, 1);
  EXPECT_NE(out.rendered.find("[use-before-init]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("'x'"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("'x' declared here"), std::string::npos) << out.rendered;
}

TEST(AnalysisUseBeforeInit, InitLoopIsRecognized) {
  // The canonical init idiom: the first loop iteration is peeled, so the
  // exit join does not contain the pre-loop uninitialized state.
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int arr[4];
  int i;
  i = 0;
  while (i < 4) {
    arr[i] = 0;
    i = i + 1;
  }
  r = UpTalkDown(arr[0]);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

// ---- unreachable-code ------------------------------------------------------

TEST(AnalysisUnreachable, CodeAfterGotoIsFlagged) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  x = 1;
  goto fin;
  skipped:
  x = 2;
  fin:
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_NE(out.rendered.find("[unreachable-code]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("no control path"), std::string::npos) << out.rendered;
}

TEST(AnalysisUnreachable, ConstantConditionBranchIsFlagged) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int c;
  int x;
  c = 0;
  x = 1;
  if (c == 1) {
    x = 2;
  }
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_NE(out.rendered.find("[unreachable-code]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("statically constant"), std::string::npos) << out.rendered;
}

TEST(AnalysisUnreachable, MessageGuardedBranchIsSilent) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  x = 1;
  r = UpTalkDown(x);
  if (r.r == 1) {
    x = 2;
  }
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

// ---- truncation-loss -------------------------------------------------------

TEST(AnalysisTruncation, ValueNeverFittingIsFlagged) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b8;
  b8 = 200 + 200;
  r = UpTalkDown(b8);
}
)esm") + kEchoDown);
  EXPECT_NE(out.rendered.find("[truncation-loss]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("never fits"), std::string::npos) << out.rendered;
}

TEST(AnalysisTruncation, InRangeValueIsSilent) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b8;
  b8 = 100 + 100;
  r = UpTalkDown(b8);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

// ---- static-bounds ---------------------------------------------------------

TEST(AnalysisBounds, DefinitelyOutOfBoundsIndexIsError) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int arr[4];
  int i;
  i = 0;
  while (i < 4) {
    arr[i] = i;
    i = i + 1;
  }
  i = 5 + 2;
  r = UpTalkDown(arr[i]);
}
)esm") + kEchoDown);
  EXPECT_GE(out.result.errors, 1);
  EXPECT_FALSE(out.result.ok());
  EXPECT_NE(out.rendered.find("[static-bounds]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("always out of bounds"), std::string::npos) << out.rendered;
}

TEST(AnalysisBounds, InBoundsIndexIsSilent) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int arr[4];
  int i;
  i = 0;
  while (i < 4) {
    arr[i] = i;
    i = i + 1;
  }
  i = 1 + 2;
  r = UpTalkDown(arr[i]);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

// ---- channel-conformance ---------------------------------------------------

// Valid ESM cannot express a direction or arity violation (sema rejects it),
// so these cases drive AnalyzeModule with hand-built modules referencing
// channels from a real compilation.
class AnalysisChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string rendered;
    comp_ = CompilePair(std::string(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
}
)esm") + kEchoDown, &rendered);
    ASSERT_NE(comp_, nullptr) << rendered;
    down_channel_ = comp_->system().FindChannel("Up", "Down");
    ASSERT_NE(down_channel_, nullptr);
  }

  // A one-block module that sends `count` words on its single port.
  ir::Module MakeSender(const std::string& layer, const esi::ChannelInfo* channel, int count) {
    ir::Module m;
    m.layer_name = layer;
    m.frame_size = count > 0 ? count : 1;
    m.ports.push_back(ir::Port{channel, /*is_send=*/true});
    ir::Inst send;
    send.op = ir::Opcode::kSend;
    send.port = 0;
    send.a = 0;
    send.count = count;
    send.loc = SourceLocation{1, 1, 0};
    ir::Inst halt;
    halt.op = ir::Opcode::kHalt;
    ir::Block block;
    block.insts = {send, halt};
    m.blocks.push_back(block);
    return m;
  }

  std::unique_ptr<ir::Compilation> comp_;
  const esi::ChannelInfo* down_channel_ = nullptr;
};

TEST_F(AnalysisChannelTest, WrongDirectionIsError) {
  // 'Down' sending on the Up->Down channel: the ESI declaration says the
  // sender is 'Up'.
  ir::Module m = MakeSender("Down", down_channel_, down_channel_->flat_size);
  std::vector<analysis::Finding> findings = analysis::AnalyzeModule(m, /*verifier_mode=*/false);
  bool found = false;
  for (const analysis::Finding& f : findings) {
    if (f.rule == analysis::kRuleChannelConformance && f.severity == Severity::kError &&
        f.message.find("sends on") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnalysisChannelTest, WrongDirectionAllowedInVerifierMode) {
  // Verifier glue acts as other layers; the direction check must not fire.
  ir::Module m = MakeSender("Down", down_channel_, down_channel_->flat_size);
  std::vector<analysis::Finding> findings = analysis::AnalyzeModule(m, /*verifier_mode=*/true);
  for (const analysis::Finding& f : findings) {
    EXPECT_TRUE(f.message.find("sends on") == std::string::npos) << f.message;
  }
}

TEST_F(AnalysisChannelTest, ArityMismatchIsError) {
  ir::Module m = MakeSender("Up", down_channel_, down_channel_->flat_size + 1);
  std::vector<analysis::Finding> findings = analysis::AnalyzeModule(m, /*verifier_mode=*/true);
  bool found = false;
  for (const analysis::Finding& f : findings) {
    if (f.rule == analysis::kRuleChannelConformance &&
        f.message.find("words on channel") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(AnalysisChannelTest, MatchingArityIsSilent) {
  ir::Module m = MakeSender("Up", down_channel_, down_channel_->flat_size);
  std::vector<analysis::Finding> findings = analysis::AnalyzeModule(m, /*verifier_mode=*/false);
  for (const analysis::Finding& f : findings) {
    EXPECT_NE(f.rule, analysis::kRuleChannelConformance) << f.message;
  }
}

TEST_F(AnalysisChannelTest, UnusedChannelIsReported) {
  // Both endpoint layers compiled, but neither has a port on either channel.
  ir::Module up;
  up.layer_name = "Up";
  ir::Module down;
  down.layer_name = "Down";
  std::vector<ir::Module> modules;
  modules.push_back(up);
  modules.push_back(down);
  std::vector<analysis::Finding> findings =
      analysis::FindUnusedChannels(comp_->system(), modules);
  ASSERT_EQ(findings.size(), 2u);  // Up->Down and Down->Up both unused.
  EXPECT_NE(findings[0].message.find("no process uses it"), std::string::npos);
  EXPECT_TRUE(findings[0].in_esi);
}

TEST_F(AnalysisChannelTest, UsedChannelsAreSilent) {
  std::vector<analysis::Finding> findings =
      analysis::FindUnusedChannels(comp_->system(), comp_->modules());
  EXPECT_TRUE(findings.empty());
}

// ---- progress-reachability -------------------------------------------------

TEST(AnalysisProgress, BusyLoopIsError) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  x = 0;
  r = UpTalkDown(x);
  spin:
  x = x + 1;
  goto spin;
}
)esm") + kEchoDown);
  EXPECT_GE(out.result.errors, 1);
  EXPECT_NE(out.rendered.find("[progress-reachability]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("busy loop"), std::string::npos) << out.rendered;
}

TEST(AnalysisProgress, CycleNotReachingProgressLabelIsWarning) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  progress_setup:
  r = UpTalkDown(1);
  idle:
  r = UpTalkDown(2);
  goto idle;
}
)esm") + kEchoDown);
  EXPECT_NE(out.rendered.find("[progress-reachability]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("cannot reach any progress label"), std::string::npos)
      << out.rendered;
}

TEST(AnalysisProgress, CycleThroughProgressLabelIsSilent) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  progress_step:
  r = UpTalkDown(1);
  goto progress_step;
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

// ---- reset-safety ----------------------------------------------------------

// The canonical trigger: a guard derived from state the zeroed frame
// guarantees is 0 at cold boot. The `if (y == 0)` arm is the only feasible
// path at cold boot, so 'x' is always assigned before use — but after a soft
// reset the array holds stale values, the guard can go either way, and the
// skipping path reaches the read of 'x' with no assignment.
TEST(AnalysisResetSafety, ZeroGuardedAssignmentIsFlagged) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte arr[4];
  byte y;
  int x;
  arr[0] = 0;
  r = UpTalkDown(1);
  y = arr[r.r];
  if (y == 0) {
    x = 1;
  }
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_GE(out.result.warnings, 1);
  EXPECT_NE(out.rendered.find("[reset-safety]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("'x'"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("reset entry path"), std::string::npos) << out.rendered;
}

TEST(AnalysisResetSafety, ExplicitReinitIsSilent) {
  // Same shape, but 'x' is unconditionally assigned before the guard — the
  // reset entry path re-executes that assignment, so the read is safe.
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte arr[4];
  byte y;
  int x;
  arr[0] = 0;
  r = UpTalkDown(1);
  y = arr[r.r];
  x = 0;
  if (y == 0) {
    x = 1;
  }
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
}

TEST(AnalysisResetSafety, ColdBootUninitReadIsNotDoubleReported) {
  // A read that is already use-before-init at cold boot must not also appear
  // as reset-safety: the reset model adds nothing the base rule missed.
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
  y = x + 1;
  r = UpTalkDown(y);
}
)esm") + kEchoDown);
  EXPECT_NE(out.rendered.find("[use-before-init]"), std::string::npos) << out.rendered;
  EXPECT_EQ(out.rendered.find("[reset-safety]"), std::string::npos) << out.rendered;
}

TEST(AnalysisResetSafety, SuppressionPragmaApplies) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte arr[4];
  byte y;
  int x;
  arr[0] = 0;
  r = UpTalkDown(1);
  y = arr[r.r];
  if (y == 0) {
    x = 1;
  }
#pragma esmlint suppress reset-safety
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
  EXPECT_EQ(out.result.suppressed, 1);
}

// ---- suppressions, options -------------------------------------------------

TEST(AnalysisSuppression, PragmaSuppressesNextLine) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
#pragma esmlint suppress use-before-init
  y = x + 1;
  r = UpTalkDown(y);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.errors, 0);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
  EXPECT_EQ(out.result.suppressed, 1);
}

TEST(AnalysisSuppression, DisableEnableRegion) {
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
  int z;
#pragma esmlint disable use-before-init
  y = x + 1;
#pragma esmlint enable use-before-init
  r = UpTalkDown(y + z);
}
)esm") + kEchoDown);
  // 'x' is read inside the disabled region; 'z' after re-enabling.
  EXPECT_EQ(out.result.suppressed, 1) << out.rendered;
  EXPECT_EQ(out.result.warnings, 1) << out.rendered;
  EXPECT_NE(out.rendered.find("'z'"), std::string::npos) << out.rendered;
}

TEST(AnalysisSuppression, UnknownPragmaTokenWarns) {
  LintOutcome out = Lint(std::string(R"esm(
#pragma esmlint frobnicate
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
}
)esm") + kEchoDown);
  EXPECT_NE(out.rendered.find("unknown esmlint pragma token 'frobnicate'"), std::string::npos)
      << out.rendered;
}

TEST(AnalysisOptionsTest, DisabledRuleIsCountedSuppressed) {
  analysis::AnalysisOptions options;
  options.disabled.insert(analysis::kRuleUseBeforeInit);
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
  y = x + 1;
  r = UpTalkDown(y);
}
)esm") + kEchoDown,
                         options);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
  EXPECT_EQ(out.result.suppressed, 1);
}

TEST(AnalysisOptionsTest, WerrorEscalatesWarnings) {
  analysis::AnalysisOptions options;
  options.werror = true;
  LintOutcome out = Lint(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int y;
  y = x + 1;
  r = UpTalkDown(y);
}
)esm") + kEchoDown,
                         options);
  EXPECT_GE(out.result.errors, 1);
  EXPECT_FALSE(out.result.ok());
  EXPECT_NE(out.rendered.find("error:"), std::string::npos) << out.rendered;
}

// ---- golden diagnostic text ------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(EFEU_GOLDEN_DIR) + "/" + name;
}

void CompareOrUpdate(const std::string& name, const std::string& generated) {
  const std::string path = GoldenPath(name);
  if (std::getenv("EFEU_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << generated;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run `efeu_tests --update-goldens` to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(generated, golden.str())
      << "lint diagnostics for " << name << " changed; if intended, refresh with "
      << "`efeu_tests --update-goldens` and commit the diff";
}

TEST(AnalysisGolden, DiagnosticRenderingMatchesGolden) {
  // One spec hitting several rules: pins the full rendering — severities,
  // carets, underlines, "declared here" notes and [rule] suffixes.
  DiagnosticEngine diag;
  auto comp = ir::Compile(kPairEsi, std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  byte b8;
  int arr[4];
  int i;
  i = 0;
  while (i < 4) {
    arr[i] = 0;
    i = i + 1;
  }
  b8 = 300 + 100;
  i = 4 + 3;
  r = UpTalkDown(arr[i] + x);
  goto fin;
  skipped:
  x = 2;
  fin:
  r = UpTalkDown(x);
}
)esm") + kEchoDown,
                          diag, {});
  ASSERT_NE(comp, nullptr) << diag.RenderAll();
  DiagnosticEngine lint_diag;
  analysis::AnalyzeCompilation(*comp, lint_diag, {});
  CompareOrUpdate("analysis_diagnostics.txt", lint_diag.RenderAll());
}

// ---- shipped specifications lint clean -------------------------------------

void ExpectLintClean(const ir::Compilation& comp, const std::string& what) {
  DiagnosticEngine diag;
  analysis::AnalysisOptions options;
  options.werror = true;
  analysis::AnalysisResult result = analysis::AnalyzeCompilation(comp, diag, options);
  EXPECT_EQ(result.errors, 0) << what << ":\n" << diag.RenderAll();
  EXPECT_EQ(result.warnings, 0) << what << ":\n" << diag.RenderAll();
  EXPECT_EQ(result.suppressed, 0) << what << ": shipped specs must not need suppressions";
}

TEST(ShippedSpecsLint, DriverStacksAreClean) {
  {
    DiagnosticEngine diag;
    auto comp = i2c::CompileControllerStack(diag);
    ASSERT_NE(comp, nullptr) << diag.RenderAll();
    ExpectLintClean(*comp, "controller stack");
  }
  {
    DiagnosticEngine diag;
    i2c::ControllerStackOptions options;
    options.no_clock_stretching = true;
    options.ks0127_compat = true;
    auto comp = i2c::CompileControllerStack(diag, options);
    ASSERT_NE(comp, nullptr) << diag.RenderAll();
    ExpectLintClean(*comp, "controller stack (quirks)");
  }
  {
    DiagnosticEngine diag;
    auto comp = i2c::CompileResponderStack(diag);
    ASSERT_NE(comp, nullptr) << diag.RenderAll();
    ExpectLintClean(*comp, "responder stack");
  }
  {
    DiagnosticEngine diag;
    i2c::ResponderStackOptions options;
    options.ks0127 = true;
    auto comp = i2c::CompileResponderStack(diag, options);
    ASSERT_NE(comp, nullptr) << diag.RenderAll();
    ExpectLintClean(*comp, "responder stack (ks0127)");
  }
}

TEST(ShippedSpecsLint, I2cVerifierMixesAreClean) {
  using i2c::VerifyAbstraction;
  using i2c::VerifyLevel;
  struct Combo {
    VerifyLevel level;
    VerifyAbstraction abstraction;
  };
  const Combo combos[] = {
      {VerifyLevel::kSymbol, VerifyAbstraction::kNone},
      {VerifyLevel::kByte, VerifyAbstraction::kNone},
      {VerifyLevel::kByte, VerifyAbstraction::kSymbol},
      {VerifyLevel::kTransaction, VerifyAbstraction::kNone},
      {VerifyLevel::kTransaction, VerifyAbstraction::kSymbol},
      {VerifyLevel::kTransaction, VerifyAbstraction::kByte},
      {VerifyLevel::kEepDriver, VerifyAbstraction::kNone},
      {VerifyLevel::kEepDriver, VerifyAbstraction::kSymbol},
      {VerifyLevel::kEepDriver, VerifyAbstraction::kByte},
      {VerifyLevel::kEepDriver, VerifyAbstraction::kTransaction},
  };
  for (const Combo& combo : combos) {
    i2c::VerifyConfig config;
    config.level = combo.level;
    config.abstraction = combo.abstraction;
    DiagnosticEngine diag;
    auto vs = i2c::BuildVerifier(config, diag);
    ASSERT_NE(vs, nullptr) << diag.RenderAll();
    std::string what = "i2c verifier level=" + std::to_string(static_cast<int>(combo.level)) +
                       " abstraction=" + std::to_string(static_cast<int>(combo.abstraction));
    for (const auto& comp : vs->compilations()) {
      ExpectLintClean(*comp, what);
    }
  }
}

TEST(ShippedSpecsLint, SpiVerifiersAreClean) {
  for (spi::SpiVerifyLevel level : {spi::SpiVerifyLevel::kByte, spi::SpiVerifyLevel::kDriver}) {
    spi::SpiVerifyConfig config;
    config.level = level;
    DiagnosticEngine diag;
    auto vs = spi::BuildSpiVerifier(config, diag);
    ASSERT_NE(vs, nullptr) << diag.RenderAll();
    ExpectLintClean(*vs->compilation_,
                    level == spi::SpiVerifyLevel::kByte ? "spi byte verifier"
                                                        : "spi driver verifier");
  }
}

// ---- analyze-before-check --------------------------------------------------

// A spec whose only bug is an out-of-bounds load after hundreds of
// rendezvous: the checker has to walk the whole prefix to hit the runtime
// error, the lint proves it from the interval domain without executing.
const char* kSeededBugEsm = R"esm(
void Up() {
  DownToUp r;
  int arr[4];
  int i;
  int n;
  i = 0;
  while (i < 4) {
    arr[i] = 0;
    i = i + 1;
  }
  n = 0;
  step:
  r = UpTalkDown(n);
  n = n + 1;
  if (n < 400) {
    goto step;
  }
  i = 4 + 2;
  r = UpTalkDown(arr[i]);
}
)esm";

// Each side is timed as the fastest of kRuns identical calls, so one sample
// preempted on a loaded host cannot decide the comparison. The verdicts are
// asserted on the first run.
TEST(AnalyzeBeforeCheck, LintRejectsSeededBugFasterThanChecker) {
  std::string rendered;
  auto comp = CompilePair(std::string(kSeededBugEsm) + kEchoDown, &rendered);
  ASSERT_NE(comp, nullptr) << rendered;

  using Clock = std::chrono::steady_clock;
  constexpr int kRuns = 5;
  double lint_seconds = 0;
  for (int run = 0; run < kRuns; ++run) {
    DiagnosticEngine lint_diag;
    const Clock::time_point t0 = Clock::now();
    analysis::AnalysisResult lint = analysis::AnalyzeCompilation(*comp, lint_diag, {});
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    lint_seconds = run == 0 ? seconds : std::min(lint_seconds, seconds);
    if (run == 0) {
      EXPECT_FALSE(lint.ok()) << "lint missed the seeded out-of-bounds access";
      EXPECT_NE(lint_diag.RenderAll().find("[static-bounds]"), std::string::npos);
    }
  }

  check::CheckedSystem sys;
  int up = sys.AddModule(comp->FindModule("Up"), "Up");
  int down = sys.AddModule(comp->FindModule("Down"), "Down");
  sys.ConnectByChannel(up, down, comp->system().FindChannel("Up", "Down"));
  sys.ConnectByChannel(down, up, comp->system().FindChannel("Down", "Up"));
  double check_seconds = 0;
  for (int run = 0; run < kRuns; ++run) {
    const Clock::time_point t0 = Clock::now();
    check::CheckResult check = sys.Check({});
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    check_seconds = run == 0 ? seconds : std::min(check_seconds, seconds);
    if (run == 0) {
      ASSERT_FALSE(check.ok) << "checker missed the seeded runtime error";
    }
  }

  EXPECT_LT(lint_seconds, check_seconds)
      << "lint took " << lint_seconds << "s, checker took " << check_seconds << "s";
}

TEST(AnalyzeBeforeCheck, VerifierFailsFastOnLintError) {
  // The same seeded bug compiled as a nondet-enabled (verifier-mode)
  // compilation still carries the static-bounds error.
  std::string rendered;
  auto comp = CompilePair(std::string(kSeededBugEsm) + kEchoDown, &rendered,
                          /*allow_nondet=*/true);
  ASSERT_NE(comp, nullptr) << rendered;
  DiagnosticEngine diag;
  analysis::AnalysisResult lint = analysis::AnalyzeCompilation(*comp, diag, {});
  EXPECT_FALSE(lint.ok());
}

TEST(AnalyzeBeforeCheck, DoesNotPerturbStateCounts) {
  // The analysis never mutates the compiled modules, so enabling it must not
  // change what the checker explores.
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kSymbol;
  config.num_ops = 1;
  check::CheckResult baseline_safety;
  check::CheckResult analyzed_safety;
  {
    DiagnosticEngine diag;
    config.analyze_before_check = false;
    i2c::VerifyRunResult run = i2c::RunVerification(config, diag);
    ASSERT_TRUE(run.ok) << diag.RenderAll();
    baseline_safety = run.safety;
  }
  {
    DiagnosticEngine diag;
    config.analyze_before_check = true;
    i2c::VerifyRunResult run = i2c::RunVerification(config, diag);
    ASSERT_TRUE(run.ok) << diag.RenderAll();
    analyzed_safety = run.safety;
  }
  EXPECT_EQ(baseline_safety.states_stored, analyzed_safety.states_stored);
  EXPECT_EQ(baseline_safety.transitions, analyzed_safety.transitions);
}

TEST(AnalyzeBeforeCheck, SpiVerifierHonorsFlag) {
  spi::SpiVerifyConfig config;
  config.level = spi::SpiVerifyLevel::kByte;
  config.analyze_before_check = true;
  DiagnosticEngine diag;
  auto vs = spi::BuildSpiVerifier(config, diag);
  EXPECT_NE(vs, nullptr) << diag.RenderAll();  // shipped SPI specs are clean
}

// ---- dump ------------------------------------------------------------------

TEST(AnalysisDump, ContainsBlocksAndIntervals) {
  std::string rendered;
  auto comp = CompilePair(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  x = 3;
  after_assign:
  r = UpTalkDown(x);
}
)esm") + kEchoDown, &rendered);
  ASSERT_NE(comp, nullptr) << rendered;
  std::string dump = analysis::DumpAnalysis(*comp);
  EXPECT_NE(dump.find("== module Up =="), std::string::npos) << dump;
  EXPECT_NE(dump.find("x: [3, 3]"), std::string::npos) << dump;
}

}  // namespace
}  // namespace efeu
