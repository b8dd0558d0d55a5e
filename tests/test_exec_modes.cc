// Cross-tier equivalence for the VM execution modes (src/vm/exec_mode.h).
// The interpreter is the reference semantics; the compiled tier must be
// *indistinguishable* from it: identical frames, identical canonical pc,
// identical step counts (including budget stops at every instruction),
// identical blocking points, and byte-identical error strings. The fuzz
// harness extends this with randomized programs; these tests pin the
// contract on targeted cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/compile.h"
#include "src/vm/compiled.h"
#include "src/vm/system.h"

namespace efeu {
namespace {

constexpr const char* kEsi = R"esi(
layer Up;
layer Down;
interface <Up, Down> {
  => { i32 a; i32 b; u8 arr[3]; },
  <= { i32 r; u8 echo[3]; }
};
)esi";

constexpr vm::ExecMode kAllModes[] = {vm::ExecMode::kInterp, vm::ExecMode::kCompiled};

std::unique_ptr<ir::Compilation> Compile(const std::string& esm) {
  DiagnosticEngine diag;
  auto comp = ir::Compile(kEsi, esm, diag, ir::CompileOptions{});
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  return comp;
}

// Full machine-state comparison: canonical pc, run state, step counter,
// progress bit, and every frame slot (temps included — the tiers must agree
// even on dead values because they execute the same instruction sequence).
void ExpectSameMachineState(const vm::IrExecutor& a, const vm::IrExecutor& b,
                            const std::string& context) {
  EXPECT_EQ(a.state(), b.state()) << context;
  EXPECT_EQ(a.current_block(), b.current_block()) << context;
  EXPECT_EQ(a.current_inst_index(), b.current_inst_index()) << context;
  EXPECT_EQ(a.steps(), b.steps()) << context;
  EXPECT_EQ(a.ProgressSeen(), b.ProgressSeen()) << context;
  EXPECT_EQ(a.error(), b.error()) << context;
  ASSERT_EQ(a.frame().size(), b.frame().size()) << context;
  for (size_t i = 0; i < a.frame().size(); ++i) {
    EXPECT_EQ(a.frame()[i], b.frame()[i]) << context << " slot " << i;
  }
}

// Runs `module` under both tiers in lockstep with the given step budget per
// Run() call, comparing the full machine state after every slice. A budget
// of 1 forces a stop after every instruction, straight through compiled-tier
// re-entry dispatch.
void LockstepAllTiers(const ir::Module* module, uint64_t budget) {
  vm::IrExecutor reference(module);
  vm::IrExecutor compiled(module);
  compiled.set_exec_mode(vm::ExecMode::kCompiled);
  for (int slice = 0; slice < 100000; ++slice) {
    vm::RunState state = reference.Run(budget);
    compiled.Run(budget);
    std::string context = module->layer_name + " budget=" + std::to_string(budget) +
                          " slice=" + std::to_string(slice);
    ExpectSameMachineState(reference, compiled, context + " [compiled]");
    if (state != vm::RunState::kRunnable) {
      return;  // Blocked, halted, or failed identically in both tiers.
    }
  }
  FAIL() << "program did not terminate";
}

// Exercises every opcode class: constants, truncating copies, unary and
// binary operators, array indexing, loops, and a final halt.
constexpr const char* kArithBody = R"esm(
void Up() {
  int x;
  int i;
  byte acc[4];
  short s;
  bit flip;
  x = 1;
  i = 0;
  while (i < 17) {
    x = x * 3 + i;
    x = x % 9973;
    s = x;
    flip = !flip;
    acc[i % 4] = x >> (i % 8);
    x = x + acc[(i + 1) % 4] + s + flip;
    x = x - (x / 7);
    i = i + 1;
  }
  assert(x >= 0 || x < 0);
}
)esm";

TEST(ExecModes, LockstepArithmeticAllBudgets) {
  auto comp = Compile(kArithBody);
  ASSERT_NE(comp, nullptr);
  const ir::Module* module = comp->FindModule("Up");
  for (uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{7}, uint64_t{0}}) {
    LockstepAllTiers(module, budget);
  }
}

TEST(ExecModes, IdenticalDivisionByZeroError) {
  auto comp = Compile("void Up() { int n; int x; n = 0; x = 10 / n; }");
  ASSERT_NE(comp, nullptr);
  LockstepAllTiers(comp->FindModule("Up"), 0);
  vm::IrExecutor compiled(comp->FindModule("Up"));
  compiled.set_exec_mode(vm::ExecMode::kCompiled);
  compiled.Run();
  EXPECT_EQ(compiled.state(), vm::RunState::kRuntimeError);
  EXPECT_NE(compiled.error().find("division by zero"), std::string::npos) << compiled.error();
}

TEST(ExecModes, IdenticalOutOfBoundsError) {
  auto comp = Compile("void Up() { byte a[3]; int i; i = 5; a[i] = 1; }");
  ASSERT_NE(comp, nullptr);
  LockstepAllTiers(comp->FindModule("Up"), 0);
  vm::IrExecutor compiled(comp->FindModule("Up"));
  compiled.set_exec_mode(vm::ExecMode::kCompiled);
  compiled.Run();
  EXPECT_EQ(compiled.state(), vm::RunState::kRuntimeError);
  EXPECT_NE(compiled.error().find("index 5 out of bounds"), std::string::npos)
      << compiled.error();
}

TEST(ExecModes, IdenticalAssertError) {
  auto comp = Compile("void Up() { int x; x = 3; assert(x == 4); }");
  ASSERT_NE(comp, nullptr);
  LockstepAllTiers(comp->FindModule("Up"), 0);
  LockstepAllTiers(comp->FindModule("Up"), 1);
}

constexpr const char* kEchoPair = R"esm(
void Up() {
  DownToUp r;
  byte arr[3];
  arr[0] = 1;
  arr[1] = 2;
  arr[2] = 3;
  r = UpTalkDown(40, 2, arr);
  assert(r.r == 42);
  assert(r.echo[0] == 1);
  assert(r.echo[2] == 3);
}

void Down() {
  UpToDown q;
  byte out[3];
  int i;
  end_init:
  q = DownReadUp();
  i = 0;
  while (i < 3) {
    out[i] = q.arr[i];
    i = i + 1;
  }
  end_reply:
  q = DownTalkUp(q.a + q.b, out);
  goto end_reply;
}
)esm";

// Whole-system equivalence: the rendezvous scheduler drives both layers in
// each tier; final states, per-process steps, and the observed per-channel
// message sequences must match the interpreter run.
TEST(ExecModes, SystemRendezvousEquivalence) {
  auto comp = Compile(kEchoPair);
  ASSERT_NE(comp, nullptr);
  std::vector<std::vector<int32_t>> reference_messages;
  std::vector<uint64_t> reference_steps;
  for (vm::ExecMode mode : kAllModes) {
    vm::System system;
    system.SetExecMode(mode);
    int up = system.AddProcess(comp->FindModule("Up"), "Up");
    int down = system.AddProcess(comp->FindModule("Down"), "Down");
    const esi::ChannelInfo* to_down = comp->system().FindChannel("Up", "Down");
    const esi::ChannelInfo* to_up = comp->system().FindChannel("Down", "Up");
    system.Connect(system.FindPort(up, to_down, true), system.FindPort(down, to_down, false));
    system.Connect(system.FindPort(down, to_up, true), system.FindPort(up, to_up, false));
    system.Precompile();
    std::vector<std::vector<int32_t>> messages;
    system.SetTransferObserver(
        [&messages](vm::PortRef sender, vm::PortRef, std::span<const int32_t> message) {
          if (sender.process < 0) {
            return;  // Compare internal rendezvous sequences only.
          }
          messages.emplace_back(message.begin(), message.end());
        });
    ASSERT_EQ(system.Run(), vm::SystemState::kQuiescent) << system.error();
    EXPECT_EQ(system.executor(up).state(), vm::RunState::kHalted);
    EXPECT_EQ(system.executor(down).state(), vm::RunState::kBlockedRecv);
    EXPECT_TRUE(system.executor(down).AtValidEndState());
    std::vector<uint64_t> steps = {system.executor(up).steps(), system.executor(down).steps()};
    if (mode == vm::ExecMode::kInterp) {
      reference_messages = messages;
      reference_steps = steps;
    } else {
      EXPECT_EQ(messages, reference_messages) << vm::ExecModeName(mode);
      EXPECT_EQ(steps, reference_steps) << vm::ExecModeName(mode);
    }
  }
}

// A process may switch tiers at any blocking point: start interpreting, stop
// at the recv, snapshot, restore into a compiled-mode executor, and finish.
TEST(ExecModes, TierSwitchAtBlockingPoint) {
  auto comp = Compile(kEchoPair);
  ASSERT_NE(comp, nullptr);
  const ir::Module* module = comp->FindModule("Down");

  vm::IrExecutor interp(module);
  interp.Run();
  ASSERT_EQ(interp.state(), vm::RunState::kBlockedRecv);
  std::vector<int32_t> snapshot(interp.SnapshotSize());
  interp.Snapshot(snapshot);

  vm::IrExecutor compiled(module);
  compiled.set_exec_mode(vm::ExecMode::kCompiled);
  compiled.Restore(snapshot);
  ASSERT_EQ(compiled.state(), vm::RunState::kBlockedRecv);
  const std::vector<int32_t> request = {6, 7, 9, 8, 7};
  compiled.CompleteRecv(request);
  interp.CompleteRecv(request);
  interp.Run();
  compiled.Run();
  ASSERT_EQ(compiled.state(), vm::RunState::kBlockedSend);
  ASSERT_EQ(interp.state(), vm::RunState::kBlockedSend);
  EXPECT_EQ(std::vector<int32_t>(compiled.pending_message().begin(),
                                 compiled.pending_message().end()),
            std::vector<int32_t>(interp.pending_message().begin(),
                                 interp.pending_message().end()));
}

TEST(ExecModes, ParseAndNames) {
  EXPECT_STREQ(vm::ExecModeName(vm::ExecMode::kInterp), "interp");
  EXPECT_STREQ(vm::ExecModeName(vm::ExecMode::kCompiled), "compiled");
}

// kCompiled silently degrades to kInterp when no artifact can be built;
// effective_mode() reports the tier that actually executes.
TEST(ExecModes, EffectiveModeReflectsAvailability) {
  auto comp = Compile("void Up() { int x; x = 1; }");
  ASSERT_NE(comp, nullptr);
  vm::IrExecutor executor(comp->FindModule("Up"));
  EXPECT_EQ(executor.effective_mode(), vm::ExecMode::kInterp);
  executor.set_exec_mode(vm::ExecMode::kCompiled);
  if (vm::CompiledTierAvailable()) {
    EXPECT_EQ(executor.effective_mode(), vm::ExecMode::kCompiled);
  } else {
    EXPECT_EQ(executor.effective_mode(), vm::ExecMode::kInterp);
  }
}

// The emitted C is deterministic (it is the artifact cache key).
TEST(ExecModes, EmittedSourceDeterministic) {
  auto comp = Compile(kArithBody);
  ASSERT_NE(comp, nullptr);
  const ir::Module* module = comp->FindModule("Up");
  std::string a = vm::CompiledModule::EmitC(*module, "efeu_step");
  std::string b = vm::CompiledModule::EmitC(*module, "efeu_step");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("efeu_step"), std::string::npos);
}

}  // namespace
}  // namespace efeu
