// Unit tests for the IR lowering and the software VM: arithmetic semantics,
// truncation, arrays, control flow, rendezvous communication, end states,
// snapshots, and the cooperative scheduler.

#include <gtest/gtest.h>

#include "src/ir/compile.h"
#include "src/ir/dump.h"
#include "src/ir/segment.h"
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

std::unique_ptr<ir::Compilation> Compile(const std::string& esm, bool verifier = true) {
  DiagnosticEngine diag;
  ir::CompileOptions options;
  options.allow_nondet = verifier;
  auto comp = ir::Compile(kEsi, esm, diag, options);
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  return comp;
}

// Runs a single self-contained layer to completion and returns its frame
// slot value for variable `name`.
int32_t RunAndInspect(const std::string& body, const std::string& name) {
  auto comp = Compile("void Up() {\n" + body + "\n}");
  if (comp == nullptr) {
    return INT32_MIN;
  }
  const ir::Module* module = comp->FindModule("Up");
  vm::IrExecutor executor(module);
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kHalted) << executor.error();
  for (const ir::SlotInfo& slot : module->slots) {
    if (slot.name == name) {
      return executor.frame()[slot.offset];
    }
  }
  ADD_FAILURE() << "no slot " << name;
  return INT32_MIN;
}

// ---------------------------------------------------------------------------
// Expression semantics
// ---------------------------------------------------------------------------

TEST(IrVm, Arithmetic) {
  EXPECT_EQ(RunAndInspect("int x; x = 2 + 3 * 4;", "x"), 14);
  EXPECT_EQ(RunAndInspect("int x; x = (2 + 3) * 4;", "x"), 20);
  EXPECT_EQ(RunAndInspect("int x; x = 17 % 5;", "x"), 2);
  EXPECT_EQ(RunAndInspect("int x; x = 17 / 5;", "x"), 3);
  EXPECT_EQ(RunAndInspect("int x; x = -7;", "x"), -7);
}

TEST(IrVm, BitOperations) {
  EXPECT_EQ(RunAndInspect("int x; x = (0xF0 | 0x0F) & 0x3C;", "x"), 0x3C);
  EXPECT_EQ(RunAndInspect("int x; x = 0xFF ^ 0x0F;", "x"), 0xF0);
  EXPECT_EQ(RunAndInspect("int x; x = ~0;", "x"), -1);
  EXPECT_EQ(RunAndInspect("int x; x = 1 << 7;", "x"), 128);
  EXPECT_EQ(RunAndInspect("int x; x = 0x80 >> 4;", "x"), 8);
}

TEST(IrVm, ComparisonsAndLogic) {
  EXPECT_EQ(RunAndInspect("int x; x = 3 < 4;", "x"), 1);
  EXPECT_EQ(RunAndInspect("int x; x = 3 >= 4;", "x"), 0);
  EXPECT_EQ(RunAndInspect("int x; x = (1 == 1) && (2 != 3);", "x"), 1);
  EXPECT_EQ(RunAndInspect("int x; x = 0 || 0;", "x"), 0);
  EXPECT_EQ(RunAndInspect("int x; x = !5;", "x"), 0);
}

TEST(IrVm, ShortCircuitPreventsDivisionByZero) {
  EXPECT_EQ(RunAndInspect("int n; int x; n = 0; x = (n != 0) && (10 / n > 1);", "x"), 0);
  EXPECT_EQ(RunAndInspect("int n; int x; n = 0; x = (n == 0) || (10 / n > 1);", "x"), 1);
}

TEST(IrVm, ByteTruncation) {
  EXPECT_EQ(RunAndInspect("byte x; x = 0x1FF;", "x"), 0xFF);
  EXPECT_EQ(RunAndInspect("byte x; x = 255; x = x + 1;", "x"), 0);
  EXPECT_EQ(RunAndInspect("short x; x = 0x8000;", "x"), -32768);
  EXPECT_EQ(RunAndInspect("bit x; x = 4;", "x"), 1);
}

TEST(IrVm, ZeroInitializedLocals) {
  EXPECT_EQ(RunAndInspect("int x; int y; y = x;", "y"), 0);
}

TEST(IrVm, Arrays) {
  EXPECT_EQ(RunAndInspect(R"(
    byte a[5];
    int i;
    i = 0;
    while (i < 5) {
      a[i] = i * i;
      i = i + 1;
    }
    int x;
    x = a[3] + a[4];
  )",
                          "x"),
            25);
}

TEST(IrVm, WhileAndGoto) {
  EXPECT_EQ(RunAndInspect(R"(
    int x;
    x = 1;
    loop:
    x = x * 2;
    if (x < 100) {
      goto loop;
    }
  )",
                          "x"),
            128);
}

TEST(IrVm, IfElseChain) {
  EXPECT_EQ(RunAndInspect(R"(
    int x; int y;
    x = 2;
    if (x == 1) { y = 10; } else if (x == 2) { y = 20; } else { y = 30; }
  )",
                          "y"),
            20);
}

// ---------------------------------------------------------------------------
// Failure semantics
// ---------------------------------------------------------------------------

TEST(IrVm, DivisionByZeroIsRuntimeError) {
  auto comp = Compile("void Up() { int x; int z; x = 1 / z; }");
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kRuntimeError);
  EXPECT_NE(executor.error().find("division by zero"), std::string::npos);
}

TEST(IrVm, OutOfBoundsIndexIsRuntimeError) {
  auto comp = Compile("void Up() { byte a[3]; int i; i = 5; a[i] = 1; }");
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kRuntimeError);
  EXPECT_NE(executor.error().find("out of bounds"), std::string::npos);
}

TEST(IrVm, FailedAssertReported) {
  auto comp = Compile("void Up() { assert(1 == 2); }");
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kAssertFailed);
}

TEST(IrVm, StepBudgetStopsRunawayLoop) {
  auto comp = Compile("void Up() { int x; loop: x = x + 1; goto loop; }");
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run(1000);
  EXPECT_EQ(executor.state(), vm::RunState::kRunnable);
  EXPECT_GE(executor.steps(), 1000u);
}

// ---------------------------------------------------------------------------
// Communication via vm::System
// ---------------------------------------------------------------------------

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

TEST(VmSystem, RendezvousTalkReadPair) {
  auto comp = Compile(kEchoPair);
  vm::System system;
  int up = system.AddProcess(comp->FindModule("Up"), "Up");
  int down = system.AddProcess(comp->FindModule("Down"), "Down");
  const esi::ChannelInfo* to_down = comp->system().FindChannel("Up", "Down");
  const esi::ChannelInfo* to_up = comp->system().FindChannel("Down", "Up");
  system.Connect(system.FindPort(up, to_down, true), system.FindPort(down, to_down, false));
  system.Connect(system.FindPort(down, to_up, true), system.FindPort(up, to_up, false));
  vm::SystemState state = system.Run();
  EXPECT_EQ(state, vm::SystemState::kQuiescent) << system.error();
  // Up halted after passing its asserts; Down waits for the next request.
  EXPECT_EQ(system.executor(up).state(), vm::RunState::kHalted);
  EXPECT_EQ(system.executor(down).state(), vm::RunState::kBlockedRecv);
  EXPECT_TRUE(system.executor(down).AtValidEndState());
}

TEST(VmSystem, ExternalPortsExchangeMessages) {
  auto comp = Compile(R"esm(
void Down() {
  UpToDown q;
  byte out[3];
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(q.a * q.b, out);
  goto end_reply;
}
)esm");
  vm::System system;
  int down = system.AddProcess(comp->FindModule("Down"), "Down");
  const esi::ChannelInfo* to_down = comp->system().FindChannel("Up", "Down");
  const esi::ChannelInfo* to_up = comp->system().FindChannel("Down", "Up");
  vm::PortRef in = system.FindPort(down, to_down, false);
  vm::PortRef out = system.FindPort(down, to_up, true);
  system.Run();
  std::vector<int32_t> request = {6, 7, 0, 0, 0};
  ASSERT_TRUE(system.DeliverMessage(in, request));
  system.Run();
  ASSERT_TRUE(system.WantsToSend(out));
  auto reply = system.TakeMessage(out);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ((*reply)[0], 42);
}

TEST(VmSystem, AssertFailurePropagates) {
  auto comp = Compile("void Up() { assert(false); }");
  vm::System system;
  system.AddProcess(comp->FindModule("Up"), "Up");
  EXPECT_EQ(system.Run(), vm::SystemState::kFailed);
  EXPECT_NE(system.error().find("assertion failed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshots & dumps & segmentation
// ---------------------------------------------------------------------------

TEST(IrVm, SnapshotRestoreRoundTrip) {
  auto comp = Compile(kEchoPair);
  const ir::Module* module = comp->FindModule("Down");
  vm::IrExecutor executor(module);
  executor.Run();
  ASSERT_EQ(executor.state(), vm::RunState::kBlockedRecv);
  std::vector<int32_t> snapshot(executor.SnapshotSize());
  executor.Snapshot(snapshot);

  vm::IrExecutor other(module);
  other.Restore(snapshot);
  EXPECT_EQ(other.state(), vm::RunState::kBlockedRecv);
  EXPECT_EQ(other.blocked_port(), executor.blocked_port());
  std::vector<int32_t> snapshot2(other.SnapshotSize());
  other.Snapshot(snapshot2);
  EXPECT_EQ(snapshot, snapshot2);
}

TEST(IrVm, SnapshotCanonicalizesTemps) {
  auto comp = Compile(kEchoPair);
  const ir::Module* module = comp->FindModule("Up");
  bool has_temp = false;
  for (const ir::SlotInfo& slot : module->slots) {
    if (slot.slot_class == ir::SlotClass::kTemp) {
      has_temp = true;
    }
  }
  EXPECT_TRUE(has_temp);
}

TEST(IrDump, MentionsBlocksAndPorts) {
  auto comp = Compile(kEchoPair);
  std::string dump = ir::DumpModule(*comp->FindModule("Down"));
  EXPECT_NE(dump.find("module Down"), std::string::npos);
  EXPECT_NE(dump.find("port recv UpToDown"), std::string::npos);
  EXPECT_NE(dump.find("port send DownToUp"), std::string::npos);
  EXPECT_NE(dump.find("[end]"), std::string::npos);
}

TEST(IrSegment, BlocksSplitAtBlockingInstructions) {
  auto comp = Compile(kEchoPair);
  const ir::Module* module = comp->FindModule("Down");
  ir::Segmentation segmentation = ir::SegmentModule(*module);
  // There must be more segments than blocks (send/recv split blocks).
  EXPECT_GT(segmentation.segments.size(), module->blocks.size());
  EXPECT_GT(segmentation.StateCount(), static_cast<int>(segmentation.segments.size()));
  // Exactly the send and receive enders park on a handshake, on their own
  // port and in their own direction.
  int handshakes = 0;
  for (const ir::Segment& segment : segmentation.segments) {
    const ir::Inst* ender =
        segment.ender < 0 ? nullptr : &module->blocks[segment.block].insts[segment.ender];
    const bool handshake =
        ender != nullptr && (ender->op == ir::Opcode::kSend || ender->op == ir::Opcode::kRecv);
    EXPECT_EQ(segment.port, handshake ? ender->port : -1);
    EXPECT_EQ(segment.is_send, handshake && ender->op == ir::Opcode::kSend);
    handshakes += handshake ? 1 : 0;
  }
  EXPECT_GT(handshakes, 0);
}

TEST(IrModule, EndLabelFlagsPropagate) {
  auto comp = Compile(kEchoPair);
  const ir::Module* module = comp->FindModule("Down");
  bool found_end = false;
  for (const ir::Block& block : module->blocks) {
    if (block.is_end_label) {
      found_end = true;
    }
  }
  EXPECT_TRUE(found_end);
}

}  // namespace
}  // namespace efeu
