// Unit tests for the IR lowering and the software VM: arithmetic semantics,
// truncation, arrays, control flow, rendezvous communication, end states,
// snapshots, and the cooperative scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

// The whole message is pinned: System::error() and the fuzz harness's
// reports show it as is, so the layer name, the operands and the source
// location are all part of the contract.
constexpr const char* kDivZeroBody = "void Up() { int n; int x; n = 0; x = 10 / n; }";
constexpr const char* kOutOfBoundsBody = "void Up() { byte a[3]; int i; i = 5; a[i] = 1; }";
constexpr const char* kAssertBody = "void Up() { int x; x = 3; assert(x == 4); }";

TEST(IrVm, DivisionByZeroIsRuntimeError) {
  auto comp = Compile(kDivZeroBody);
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kRuntimeError);
  EXPECT_EQ(executor.error(), "Up: division by zero at 1:41");
}

TEST(IrVm, OutOfBoundsIndexIsRuntimeError) {
  auto comp = Compile(kOutOfBoundsBody);
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kRuntimeError);
  EXPECT_EQ(executor.error(), "Up: array index 5 out of bounds at 1:39");

  // A load one past the last element is out of bounds too.
  auto load = Compile("void Up() { byte a[3]; int i; int x; i = 3; x = a[i]; }");
  vm::IrExecutor loader(load->FindModule("Up"));
  loader.Run();
  EXPECT_EQ(loader.state(), vm::RunState::kRuntimeError);
  EXPECT_EQ(loader.error(), "Up: array index 3 out of bounds at 1:50");
}

TEST(IrVm, FailedAssertReported) {
  auto comp = Compile(kAssertBody);
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run();
  EXPECT_EQ(executor.state(), vm::RunState::kAssertFailed);
  EXPECT_EQ(executor.error(), "Up: assertion failed at 1:27");
}

TEST(IrVm, StepBudgetStopsRunawayLoop) {
  auto comp = Compile("void Up() { int x; loop: x = x + 1; goto loop; }");
  vm::IrExecutor executor(comp->FindModule("Up"));
  executor.Run(1000);
  EXPECT_EQ(executor.state(), vm::RunState::kRunnable);
  EXPECT_EQ(executor.steps(), 1000u);
}

// Control entering a progress-labeled block sets the progress bit, whether by
// a jump or a branch. Lowering reaches every labeled block through a jump, so
// the branch needs hand-built IR.
TEST(IrVm, BranchIntoProgressBlockSetsProgressSeen) {
  for (int32_t taken : {0, 1}) {
    ir::Inst cond;
    cond.op = ir::Opcode::kConst;
    cond.dst = 0;
    cond.imm = taken;
    ir::Inst branch;
    branch.op = ir::Opcode::kBranch;
    branch.a = 0;
    branch.target = 1;
    branch.target2 = 2;
    ir::Module module;
    module.layer_name = "Up";
    module.frame_size = 1;
    module.blocks.resize(3);
    module.blocks[0].insts = {cond, branch};
    module.blocks[1].insts = {ir::Inst{}};  // kHalt
    module.blocks[1].is_progress_label = true;
    module.blocks[2].insts = {ir::Inst{}};
    vm::IrExecutor executor(&module);
    EXPECT_EQ(executor.Run(), vm::RunState::kHalted);
    EXPECT_EQ(executor.ProgressSeen(), taken == 1);
  }
}

// Exercises every non-blocking opcode class: constants, truncating copies,
// unary and binary operators, array loads and stores, loops, an assert that
// holds, and a final halt.
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

// A step budget slices a run without changing it. Every slice that leaves
// the executor runnable retires exactly `budget` instructions, and the last
// slice ends in the machine state of one unbounded Run(): same frame (temps
// included), pc, step count, progress bit and error.
void ExpectSlicesMatchUnboundedRun(const char* body) {
  auto comp = Compile(body);
  ASSERT_NE(comp, nullptr);
  const ir::Module* module = comp->FindModule("Up");
  vm::IrExecutor reference(module);
  reference.Run();
  ASSERT_NE(reference.state(), vm::RunState::kRunnable);
  for (uint64_t budget : {1u, 2u, 3u, 7u}) {
    const std::string context = std::string(body) + " budget=" + std::to_string(budget);
    vm::IrExecutor sliced(module);
    int slices = 0;
    while (sliced.state() == vm::RunState::kRunnable) {
      ASSERT_LT(++slices, 100000) << context;
      const uint64_t before = sliced.steps();
      if (sliced.Run(budget) == vm::RunState::kRunnable) {
        ASSERT_EQ(sliced.steps() - before, budget) << context << " slice " << slices;
      }
    }
    EXPECT_EQ(sliced.state(), reference.state()) << context;
    EXPECT_EQ(sliced.current_block(), reference.current_block()) << context;
    EXPECT_EQ(sliced.current_inst_index(), reference.current_inst_index()) << context;
    EXPECT_EQ(sliced.steps(), reference.steps()) << context;
    EXPECT_EQ(sliced.ProgressSeen(), reference.ProgressSeen()) << context;
    EXPECT_EQ(sliced.error(), reference.error()) << context;
    EXPECT_TRUE(std::ranges::equal(sliced.frame(), reference.frame())) << context;
  }
}

TEST(IrVm, BudgetSlicesMatchUnboundedRun) { ExpectSlicesMatchUnboundedRun(kArithBody); }

// A run that fails stops at the same instruction, with the same message,
// however it is sliced.
TEST(IrVm, SlicedDivisionByZeroMatchesUnboundedRun) {
  ExpectSlicesMatchUnboundedRun(kDivZeroBody);
}

TEST(IrVm, SlicedOutOfBoundsMatchesUnboundedRun) {
  ExpectSlicesMatchUnboundedRun(kOutOfBoundsBody);
}

TEST(IrVm, SlicedFailedAssertMatchesUnboundedRun) { ExpectSlicesMatchUnboundedRun(kAssertBody); }

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

// A snapshot taken at a blocking point carries everything the process needs
// to continue: the restored executor completes the receive and runs to the
// same pending send as the original, with the same message and step count.
TEST(IrVm, RestoredExecutorContinuesFromBlockingPoint) {
  auto comp = Compile(kEchoPair);
  const ir::Module* module = comp->FindModule("Down");
  vm::IrExecutor executor(module);
  ASSERT_EQ(executor.Run(), vm::RunState::kBlockedRecv);
  std::vector<int32_t> snapshot(executor.SnapshotSize());
  executor.Snapshot(snapshot);
  executor.ResetSteps();  // A snapshot holds no step count.
  vm::IrExecutor other(module);
  other.Restore(snapshot);

  const std::vector<int32_t> request = {6, 7, 9, 8, 7};
  for (vm::IrExecutor* ex : {&executor, &other}) {
    ex->CompleteRecv(request);
    ASSERT_EQ(ex->Run(), vm::RunState::kBlockedSend);
  }
  EXPECT_EQ(other.blocked_port(), executor.blocked_port());
  EXPECT_EQ(other.current_block(), executor.current_block());
  EXPECT_EQ(other.current_inst_index(), executor.current_inst_index());
  EXPECT_TRUE(std::ranges::equal(other.pending_message(), executor.pending_message()));
  EXPECT_TRUE(std::ranges::equal(other.pending_message(), std::vector<int32_t>{13, 9, 8, 7}));
  EXPECT_EQ(other.steps(), executor.steps());
  EXPECT_GT(other.steps(), 0u);
}

// Completing a blocking instruction counts one step, on top of the one counted
// when the executor stopped at it. The hybrid driver charges modeled CPU time
// from these counts.
TEST(IrVm, CompletionsCountOneStep) {
  auto comp = Compile(kEchoPair);
  vm::IrExecutor down(comp->FindModule("Down"));
  ASSERT_EQ(down.Run(), vm::RunState::kBlockedRecv);
  uint64_t steps = down.steps();
  down.CompleteRecv(std::vector<int32_t>{6, 7, 9, 8, 7});
  EXPECT_EQ(down.steps(), steps + 1);
  ASSERT_EQ(down.Run(), vm::RunState::kBlockedSend);
  steps = down.steps();
  down.CompleteSend();
  EXPECT_EQ(down.steps(), steps + 1);

  auto nondet = Compile("void Up() { int b; b = nondet(2); }");
  vm::IrExecutor up(nondet->FindModule("Up"));
  ASSERT_EQ(up.Run(), vm::RunState::kBlockedNondet);
  steps = up.steps();
  up.CompleteNondet(1);
  EXPECT_EQ(up.steps(), steps + 1);
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

// Snapshot zeroes exactly the temp words, which are dead at every blocking
// point, and keeps every var and stage word. The slots interleave the
// classes and are listed out of offset order: a one-word var between two
// temps, touching temps, multi-word temps, a stage and a var at the ends.
TEST(IrVm, SnapshotZeroesExactlyTheTempSlots) {
  auto slot = [](ir::SlotClass slot_class, int offset, int size) {
    ir::SlotInfo info;
    info.slot_class = slot_class;
    info.offset = offset;
    info.size = size;
    return info;
  };
  ir::Module module;
  module.layer_name = "Up";
  module.frame_size = 14;
  module.slots = {
      slot(ir::SlotClass::kStage, 0, 2), slot(ir::SlotClass::kTemp, 4, 1),
      slot(ir::SlotClass::kTemp, 2, 2),  slot(ir::SlotClass::kVar, 5, 1),
      slot(ir::SlotClass::kTemp, 6, 1),  slot(ir::SlotClass::kTemp, 7, 3),
      slot(ir::SlotClass::kVar, 10, 2),  slot(ir::SlotClass::kTemp, 12, 1),
      slot(ir::SlotClass::kVar, 13, 1),
  };
  module.blocks.resize(1);
  module.blocks[0].insts = {ir::Inst{}};  // kHalt
  vm::IrExecutor executor(&module);
  std::span<int32_t> frame = executor.mutable_frame();
  for (size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<int32_t>(i) + 100;
  }
  std::vector<int32_t> expected = {0, 0, static_cast<int32_t>(vm::RunState::kRunnable)};
  expected.insert(expected.end(), frame.begin(), frame.end());
  for (const ir::SlotInfo& info : module.slots) {
    if (info.slot_class == ir::SlotClass::kTemp) {
      std::fill_n(expected.begin() + 3 + info.offset, info.size, 0);
    }
  }
  std::vector<int32_t> snapshot(executor.SnapshotSize());
  executor.Snapshot(snapshot);
  EXPECT_EQ(snapshot, expected);
  // Every word is either zeroed or kept.
  EXPECT_EQ(std::count(snapshot.begin() + 3, snapshot.end(), 0), 8);
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
