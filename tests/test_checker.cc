// Unit tests for the model checker on small synthetic systems: assertion
// failures with counterexample traces, invalid end states (deadlock),
// nondeterministic choice exploration, non-progress cycles (livelock),
// budgets, native-process integration, the COLLAPSE component pool, and
// line-by-line pins of the sequential engine's counterexample traces.

#include <gtest/gtest.h>

#include "src/check/checker.h"
#include "src/check/native_process.h"
#include "src/check/state_codec.h"
#include "src/ir/compile.h"

namespace efeu {
namespace {

constexpr const char* kEsi = R"esi(
layer Up;
layer Down;
interface <Up, Down> {
  => { i32 v; },
  <= { i32 r; }
};
)esi";

std::unique_ptr<ir::Compilation> Compile(const std::string& esm) {
  DiagnosticEngine diag;
  ir::CompileOptions options;
  options.allow_nondet = true;
  auto comp = ir::Compile(kEsi, esm, diag, options);
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  return comp;
}

void Wire(check::CheckedSystem& system, const ir::Compilation& comp, int up, int down) {
  system.ConnectByChannel(up, down, comp.system().FindChannel("Up", "Down"));
  system.ConnectByChannel(down, up, comp.system().FindChannel("Down", "Up"));
}

TEST(Checker, CleanSystemPasses) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(21);
  assert(r.r == 42);
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(q.v * 2);
  goto end_reply;
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  Wire(system, *comp, up, down);
  check::CheckResult result = system.Check();
  EXPECT_TRUE(result.ok);
  EXPECT_GT(result.states_stored, 0u);
  EXPECT_GT(result.transitions, 0u);
}

TEST(Checker, AssertionFailureWithTrace) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(21);
  assert(r.r == 43);
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(q.v * 2);
  goto end_reply;
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  Wire(system, *comp, up, down);
  check::CheckResult result = system.Check();
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kAssertionFailed);
  EXPECT_FALSE(result.violation->trace.empty());
}

TEST(Checker, DeadlockIsInvalidEndState) {
  // Down never replies: Up remains blocked receiving at a non-end position.
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  stuck:
  q = DownReadUp();
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  // Down never talks back; only the forward channel exists to wire.
  system.ConnectByChannel(up, down, comp->system().FindChannel("Up", "Down"));
  check::CheckResult result = system.Check();
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kInvalidEndState);
  EXPECT_NE(result.violation->message.find("Up"), std::string::npos);
}

TEST(Checker, EndLabelMakesBlockingValid) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(9);
  goto end_reply;
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  Wire(system, *comp, up, down);
  EXPECT_TRUE(system.Check().ok);
}

TEST(Checker, NondetExploresAllChoices) {
  // Only choice 3 trips the assert; the checker must find it.
  auto comp = Compile(R"esm(
void Up() {
  int x;
  x = nondet(5);
  assert(x != 3);
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckResult result = system.Check();
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kAssertionFailed);
  // The trace names the fatal choice.
  bool found = false;
  for (const std::string& step : result.violation->trace) {
    if (step.find("nondet -> 3") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Checker, NondetAllChoicesPass) {
  auto comp = Compile(R"esm(
void Up() {
  int x;
  int y;
  x = nondet(4);
  y = nondet(4);
  assert(x + y <= 6);
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckResult result = system.Check();
  EXPECT_TRUE(result.ok);
  // 4 choices for x, then 4 for y: at least 16 leaf states explored.
  EXPECT_GE(result.transitions, 16u);
}

TEST(Checker, LivelockDetectedWithoutProgressLabel) {
  // Up and Down exchange forever with no progress label anywhere.
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  spin:
  r = UpTalkDown(1);
  goto spin;
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  Wire(system, *comp, up, down);
  check::CheckerOptions options;
  options.check_deadlock = false;
  options.check_livelock = true;
  check::CheckResult result = system.Check(options);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kNonProgressCycle);
}

TEST(Checker, ProgressLabelSuppressesLivelock) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  progress_spin:
  r = UpTalkDown(1);
  goto progress_spin;
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  int down = system.AddModule(comp->FindModule("Down"), "Down");
  Wire(system, *comp, up, down);
  check::CheckerOptions options;
  options.check_deadlock = false;
  options.check_livelock = true;
  EXPECT_TRUE(system.Check(options).ok);
}

TEST(Checker, StateBudgetStopsSearch) {
  auto comp = Compile(R"esm(
void Up() {
  int x;
  int a;
  int b;
  int c;
  a = nondet(8);
  b = nondet(8);
  c = nondet(8);
  x = a + b + c;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.max_states = 10;
  check::CheckResult result = system.Check(options);
  EXPECT_TRUE(result.budget_exhausted);
}

TEST(Checker, RuntimeErrorReported) {
  auto comp = Compile(R"esm(
void Up() {
  int x;
  int d;
  d = nondet(2);
  x = 4 / d;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckResult result = system.Check();
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kRuntimeError);
}

// A native process that answers one request with value*2 and then parks.
class DoublerProcess : public check::NativeProcess {
 public:
  DoublerProcess(const esi::ChannelInfo* in, const esi::ChannelInfo* out)
      : NativeProcess("Doubler") {
    in_port_ = AddPort(in, /*is_send=*/false);
    out_port_ = AddPort(out, /*is_send=*/true);
    ResizeState(2);  // [phase, value]
    Reset();
  }

  bool AtValidEndState() const override { return current_state()[0] == 0; }

 protected:
  void InitState(std::vector<int32_t>& state) override { std::fill(state.begin(), state.end(), 0); }

  PendingOp ComputePending(const std::vector<int32_t>& state) const override {
    PendingOp op;
    if (state[0] == 0) {
      op.kind = vm::RunState::kBlockedRecv;
      op.port = in_port_;
    } else {
      op.kind = vm::RunState::kBlockedSend;
      op.port = out_port_;
      op.message = {state[1] * 2};
    }
    return op;
  }

  void OnRecv(int port, std::span<const int32_t> message,
              std::vector<int32_t>& state) override {
    state[1] = message[0];
    state[0] = 1;
  }

  void OnSendComplete(int port, std::vector<int32_t>& state) override { state[0] = 0; }

 private:
  int in_port_ = -1;
  int out_port_ = -1;
};

// Regression: a non-progress cycle whose states are first visited on a
// higher-credit path (through the progress-labeled detour) and then
// re-reached through a cross edge with no progress. Plain visited-state
// dedup prunes the low-credit re-traversal before it can close the
// equal-credit back edge, silently missing the livelock; the checker must
// re-admit states reached with strictly lower progress credit.
TEST(Checker, CrossEdgeLivelockDetected) {
  auto comp = Compile(R"esm(
void Up() {
  int b;
  hub:
  b = nondet(2);
  if (b == 0) {
    progress_detour:
    b = 0;
  }
  b = 0;
  yy:
  b = nondet(2);
  b = 0;
  cc:
  b = nondet(2);
  b = 0;
  goto hub;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.check_deadlock = false;
  options.check_livelock = true;
  check::CheckResult result = system.Check(options);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kNonProgressCycle);
}

// Counterpart: progress on the shared cycle path itself. Every cycle passes
// progress_mid, so the credit-relaxation re-exploration must not turn this
// into a false positive.
TEST(Checker, ProgressOnCycleSuppressesCrossEdgeLivelock) {
  auto comp = Compile(R"esm(
void Up() {
  int b;
  hub:
  b = nondet(2);
  if (b == 0) {
    progress_detour:
    b = 0;
  }
  b = 0;
  progress_mid:
  b = nondet(2);
  b = 0;
  cc:
  b = nondet(2);
  b = 0;
  goto hub;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.check_deadlock = false;
  options.check_livelock = true;
  check::CheckResult result = system.Check(options);
  EXPECT_TRUE(result.ok) << (result.violation.has_value() ? result.violation->message : "");
}

// Order-swapped companion to CrossEdgeLivelockDetected: here the progress
// detour is the second nondet branch, so DFS visits the cycle states on the
// credit-0 path first and the re-admission logic is exercised in the other
// direction. Detection must not depend on which branch happens to be
// explored first.
TEST(Checker, CrossEdgeLivelockDetectedRegardlessOfBranchOrder) {
  auto comp = Compile(R"esm(
void Up() {
  int b;
  hub:
  b = nondet(2);
  if (b == 1) {
    progress_detour:
    b = 0;
  }
  b = 0;
  yy:
  b = nondet(2);
  b = 0;
  cc:
  b = nondet(2);
  b = 0;
  goto hub;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.check_deadlock = false;
  options.check_livelock = true;
  check::CheckResult result = system.Check(options);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.violation->kind, check::ViolationKind::kNonProgressCycle);
}

// budget_exhausted means "a reachable subtree was actually skipped". A
// depth-pruned frame whose successors were all visited already does not
// qualify: this one-state self-loop is fully explored even at max_depth 0.
TEST(Checker, DepthPruneWithoutSkippedWorkNotExhausted) {
  auto comp = Compile(R"esm(
void Up() {
  int b;
  spin:
  b = nondet(2);
  b = 0;
  goto spin;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.max_depth = 0;
  check::CheckResult result = system.Check(options);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.budget_exhausted);
  // Pruned frames are not counted toward the deepest explored depth.
  EXPECT_LE(result.max_depth_reached, options.max_depth);
}

TEST(Checker, DepthPruneWithSkippedWorkExhausted) {
  auto comp = Compile(R"esm(
void Up() {
  int a;
  int b;
  int c;
  a = nondet(2);
  b = nondet(2);
  c = nondet(2);
  a = a + b + c;
}
)esm");
  check::CheckedSystem system;
  system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.max_depth = 1;
  check::CheckResult result = system.Check(options);
  EXPECT_TRUE(result.ok);  // No violation found within the budget...
  EXPECT_TRUE(result.budget_exhausted);  // ...but deeper states were skipped.
  EXPECT_LE(result.max_depth_reached, options.max_depth);
}

TEST(Checker, FingerprintOnlyMatchesFullSearch) {
  const char* esm = R"esm(
void Up() {
  int x;
  int y;
  x = nondet(4);
  y = nondet(4);
  assert(x + y <= 6);
}
)esm";
  auto comp = Compile(esm);
  // Compare hash compaction against full *uncompressed* vectors; COLLAPSE
  // would shrink the full table below 8 bytes/state for this one-process
  // system and has its own equivalence tests.
  check::CheckedSystem full_system;
  full_system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions full_options;
  full_options.collapse = false;
  check::CheckResult full = full_system.Check(full_options);

  check::CheckedSystem fp_system;
  fp_system.AddModule(comp->FindModule("Up"), "Up");
  check::CheckerOptions options;
  options.fingerprint_only = true;
  options.collapse = false;
  check::CheckResult fp = fp_system.Check(options);

  EXPECT_EQ(full.ok, fp.ok);
  EXPECT_EQ(full.states_stored, fp.states_stored);
  EXPECT_EQ(full.transitions, fp.transitions);
  // Hash compaction stores exactly 8 bytes per state; the full table stores
  // the complete snapshot vector.
  EXPECT_EQ(fp.state_bytes, 8 * fp.states_stored);
  EXPECT_GT(full.state_bytes, fp.state_bytes);
}

TEST(Checker, NativeProcessInterops) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(21);
  assert(r.r == 42);
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  const esi::ChannelInfo* to_down = comp->system().FindChannel("Up", "Down");
  const esi::ChannelInfo* to_up = comp->system().FindChannel("Down", "Up");
  int doubler = system.AddProcess(std::make_unique<DoublerProcess>(to_down, to_up));
  system.ConnectByChannel(up, doubler, to_down);
  system.ConnectByChannel(doubler, up, to_up);
  check::CheckResult result = system.Check();
  EXPECT_TRUE(result.ok) << (result.violation.has_value() ? result.violation->message : "");
}

// A native process with its own nondeterministic branch point (the shape the
// TransactionSpecProcess fault choice uses): after receiving a request it
// either answers value*2 or "fails" with -1.
class FlakyDoublerProcess : public check::NativeProcess {
 public:
  FlakyDoublerProcess(const esi::ChannelInfo* in, const esi::ChannelInfo* out)
      : NativeProcess("FlakyDoubler") {
    in_port_ = AddPort(in, /*is_send=*/false);
    out_port_ = AddPort(out, /*is_send=*/true);
    ResizeState(2);  // [phase, value]
    Reset();
  }

  bool AtValidEndState() const override { return current_state()[0] == 0; }

 protected:
  void InitState(std::vector<int32_t>& state) override { std::fill(state.begin(), state.end(), 0); }

  PendingOp ComputePending(const std::vector<int32_t>& state) const override {
    PendingOp op;
    if (state[0] == 0) {
      op.kind = vm::RunState::kBlockedRecv;
      op.port = in_port_;
    } else if (state[0] == 1) {
      op.kind = vm::RunState::kBlockedNondet;
      op.arity = 2;
    } else {
      op.kind = vm::RunState::kBlockedSend;
      op.port = out_port_;
      op.message = {state[1]};
    }
    return op;
  }

  void OnRecv(int port, std::span<const int32_t> message,
              std::vector<int32_t>& state) override {
    state[1] = message[0];
    state[0] = 1;
  }

  void OnChoice(int32_t choice, std::vector<int32_t>& state) override {
    state[1] = choice == 0 ? state[1] * 2 : -1;
    state[0] = 2;
  }

  void OnSendComplete(int port, std::vector<int32_t>& state) override { state[0] = 0; }

 private:
  int in_port_ = -1;
  int out_port_ = -1;
};

// Both native nondet branches are genuinely explored: the tolerant oracle
// passes, the strict one sees the -1 branch fail.
TEST(Checker, NativeNondetExploresAllChoices) {
  auto comp = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(21);
  assert(r.r == 42 || r.r == 0 - 1);
}
)esm");
  check::CheckedSystem system;
  int up = system.AddModule(comp->FindModule("Up"), "Up");
  const esi::ChannelInfo* to_down = comp->system().FindChannel("Up", "Down");
  const esi::ChannelInfo* to_up = comp->system().FindChannel("Down", "Up");
  int flaky = system.AddProcess(std::make_unique<FlakyDoublerProcess>(to_down, to_up));
  system.ConnectByChannel(up, flaky, to_down);
  system.ConnectByChannel(flaky, up, to_up);
  check::CheckResult result = system.Check();
  EXPECT_TRUE(result.ok) << (result.violation.has_value() ? result.violation->message : "");

  auto strict = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(21);
  assert(r.r == 42);
}
)esm");
  check::CheckedSystem strict_system;
  int sup = strict_system.AddModule(strict->FindModule("Up"), "Up");
  const esi::ChannelInfo* sdown = strict->system().FindChannel("Up", "Down");
  const esi::ChannelInfo* sup_ch = strict->system().FindChannel("Down", "Up");
  int sflaky = strict_system.AddProcess(std::make_unique<FlakyDoublerProcess>(sdown, sup_ch));
  strict_system.ConnectByChannel(sup, sflaky, sdown);
  strict_system.ConnectByChannel(sflaky, sup, sup_ch);
  check::CheckResult strict_result = strict_system.Check();
  ASSERT_FALSE(strict_result.ok);
  EXPECT_EQ(strict_result.violation->kind, check::ViolationKind::kAssertionFailed);
}

// -- COLLAPSE component pool ----------------------------------------------------

// 3000 snapshots cross the pool's 1024-id chunk boundary twice. Interned in
// two orders into two pools, each snapshot gets the next dense id the first
// time it is seen and that same id on every repeat, and Expand returns the
// snapshot behind each id.
TEST(CollapseTable, DenseIdsAcrossChunksInTwoOrders) {
  constexpr int32_t kSnapshots = 3000;
  constexpr int kWidth = 5;
  auto snapshot = [](int32_t i) {
    return std::vector<int32_t>{i, -i, i * 31, i % 7, 12345};
  };
  // In order, and with a stride coprime to kSnapshots (each snapshot once).
  for (int32_t stride : {1, 397}) {
    check::CollapseTable table({kWidth, 2});
    for (int32_t k = 0; k < kSnapshots; ++k) {
      ASSERT_EQ(table.Intern(0, snapshot(k * stride % kSnapshots)), k) << "stride " << stride;
    }
    for (int32_t k = kSnapshots - 1; k >= 0; --k) {
      const int32_t i = k * stride % kSnapshots;
      ASSERT_EQ(table.Intern(0, snapshot(i)), k) << "stride " << stride << " snapshot " << i;
      std::vector<int32_t> expanded(kWidth);
      table.Expand(0, k, expanded);
      EXPECT_EQ(expanded, snapshot(i)) << "stride " << stride << " id " << k;
    }
    EXPECT_EQ(table.components(), static_cast<uint64_t>(kSnapshots));
    EXPECT_EQ(table.payload_bytes(), static_cast<uint64_t>(kSnapshots) * (kWidth + 1) * 4);
    // The other process's pool is separate: its ids start at 0 again.
    EXPECT_EQ(table.Intern(1, std::vector<int32_t>{1, 2}), 0);
    EXPECT_EQ(table.Intern(1, std::vector<int32_t>{1, 3}), 1);
    EXPECT_EQ(table.Intern(1, std::vector<int32_t>{1, 2}), 0);
  }
}

// -- Counterexample trace pins -------------------------------------------------
// The sequential engine's traces, line by line. The DFS order is
// deterministic, so each trace is a fixed string list: the edges each DFS
// frame descended through, interleaved with the forced-run transitions walked
// inline below it (see kPorChainSampleMask). Both storage modes must report
// the same trace.

// Two branch points, each followed by a forced rendezvous run; the assertion
// fails inside the second run.
constexpr const char* kForcedRunAssertEsm = R"esm(
void Up() {
  int x;
  int y;
  x = nondet(2);
  UpPostDown(x);
  y = nondet(2);
  UpPostDown(x + y);
  UpPostDown(x + y + 1);
}
void Down() {
  UpToDown q;
  end_first:
  q = DownReadUp();
  q = DownReadUp();
  q = DownReadUp();
  assert(q.v != 3);
}
)esm";

// After Up's choice, the pair only exchanges over its exclusive channel while
// the bystander's choice stays pending, so every transfer is a reduced
// (ample) edge; the assertion fails in the closure of the second one.
constexpr const char* kAmplePairEsm = R"esm(
void Up() {
  int x;
  x = nondet(2);
  UpPostDown(x);
  UpPostDown(x + 1);
}
void Down() {
  UpToDown q;
  end_first:
  q = DownReadUp();
  q = DownReadUp();
  assert(q.v != 2);
}
)esm";

constexpr const char* kBystanderEsm = R"esm(
void Up() {
  int x;
  x = nondet(3);
}
)esm";

// Choice 1 strands Down on a third receive outside an end label; the
// deadlock is the landing state of a forced run.
constexpr const char* kForcedRunDeadlockEsm = R"esm(
void Up() {
  int x;
  x = nondet(2);
  UpPostDown(x);
  UpPostDown(x);
}
void Down() {
  UpToDown q;
  end_first:
  q = DownReadUp();
  q = DownReadUp();
  if (q.v == 1) {
    q = DownReadUp();
  }
}
)esm";

std::vector<std::string> TraceOf(const check::CheckResult& result) {
  return result.violation.has_value() ? result.violation->trace : std::vector<std::string>{};
}

void ExpectTrace(const check::CheckResult& result, check::ViolationKind kind,
                 const std::vector<std::string>& expected, const std::string& context) {
  ASSERT_FALSE(result.ok) << context;
  ASSERT_TRUE(result.violation.has_value()) << context;
  EXPECT_EQ(result.violation->kind, kind) << context;
  EXPECT_EQ(TraceOf(result), expected) << context;
}

TEST(CheckerTracePins, AssertionInsideForcedRun) {
  auto comp = Compile(kForcedRunAssertEsm);
  for (bool collapse : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(comp->FindModule("Up"), "Up");
    int down = system.AddModule(comp->FindModule("Down"), "Down");
    system.ConnectByChannel(up, down, comp->system().FindChannel("Up", "Down"));
    check::CheckerOptions options;
    options.collapse = collapse;
    ExpectTrace(system.Check(options), check::ViolationKind::kAssertionFailed,
                {"Up: nondet -> 1", "Up -> Down", "Up: nondet -> 1", "Up -> Down", "Up -> Down"},
                "collapse=" + std::to_string(collapse));
  }
}

TEST(CheckerTracePins, AssertionThroughReducedEdge) {
  auto pair = Compile(kAmplePairEsm);
  auto bystander = Compile(kBystanderEsm);
  for (bool collapse : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(pair->FindModule("Up"), "Up");
    int down = system.AddModule(pair->FindModule("Down"), "Down");
    system.AddModule(bystander->FindModule("Up"), "Bystander");
    system.ConnectByChannel(up, down, pair->system().FindChannel("Up", "Down"));
    check::CheckerOptions options;
    options.collapse = collapse;
    check::CheckResult result = system.Check(options);
    EXPECT_GT(result.por_reduced_states, 0u);
    ExpectTrace(result, check::ViolationKind::kAssertionFailed,
                {"Up: nondet -> 1", "Up -> Down", "Up -> Down"},
                "collapse=" + std::to_string(collapse));
  }
}

TEST(CheckerTracePins, InvalidEndStateAtForcedRunLanding) {
  auto comp = Compile(kForcedRunDeadlockEsm);
  for (bool collapse : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(comp->FindModule("Up"), "Up");
    int down = system.AddModule(comp->FindModule("Down"), "Down");
    system.ConnectByChannel(up, down, comp->system().FindChannel("Up", "Down"));
    check::CheckerOptions options;
    options.collapse = collapse;
    check::CheckResult result = system.Check(options);
    ExpectTrace(result, check::ViolationKind::kInvalidEndState,
                {"Up: nondet -> 1", "Up -> Down", "Up -> Down"},
                "collapse=" + std::to_string(collapse));
    EXPECT_EQ(result.violation->message,
              "invalid end state: Down (blocked receiving outside an end label)");
  }
}

// The cross-edge livelock of CrossEdgeLivelockDetected: the trace runs
// through the progress detour's re-admitted states to the back edge.
TEST(CheckerTracePins, NonProgressCycle) {
  auto comp = Compile(R"esm(
void Up() {
  int b;
  hub:
  b = nondet(2);
  if (b == 0) {
    progress_detour:
    b = 0;
  }
  b = 0;
  yy:
  b = nondet(2);
  b = 0;
  cc:
  b = nondet(2);
  b = 0;
  goto hub;
}
)esm");
  for (bool collapse : {true, false}) {
    check::CheckedSystem system;
    system.AddModule(comp->FindModule("Up"), "Up");
    check::CheckerOptions options;
    options.check_deadlock = false;
    options.check_livelock = true;
    options.collapse = collapse;
    ExpectTrace(system.Check(options), check::ViolationKind::kNonProgressCycle,
                {"Up: nondet -> 1", "Up: nondet -> 0", "Up: nondet -> 0"},
                "collapse=" + std::to_string(collapse));
  }
}

}  // namespace
}  // namespace efeu
