#include "src/vm/compiled.h"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/opcode_info.h"
#include "src/vm/executor.h"

namespace efeu::vm {

namespace {

const char* CompilerPath() {
  const char* env = std::getenv("EFEU_CC");
  return (env != nullptr && *env != '\0') ? env : "cc";
}

// -- C emission ---------------------------------------------------------------

std::string Int32Lit(int32_t v) {
  if (v == INT32_MIN) {
    return "(-2147483647 - 1)";  // avoid the unary-minus-on-literal pitfall
  }
  return std::to_string(v);
}

std::string Slot(int index) { return "frame[" + std::to_string(index) + "]"; }

// Mirrors Type::Truncate (src/esi/type.cc): C assignment to the narrow type.
std::string Truncated(const Type& type, const std::string& expr) {
  switch (type.kind) {
    case ScalarKind::kBit:
    case ScalarKind::kBool:
      return "((" + expr + ") != 0 ? 1 : 0)";
    case ScalarKind::kU8:
    case ScalarKind::kEnum:
      return "(int32_t)(uint8_t)(" + expr + ")";
    case ScalarKind::kI16:
      return "(int32_t)(int16_t)(" + expr + ")";
    case ScalarKind::kI32:
      return "(" + expr + ")";
  }
  return "(" + expr + ")";
}

std::string Label(int block, int inst) {
  return "L" + std::to_string(block) + "_" + std::to_string(inst);
}

// Emits the body of one instruction at (b, i). Every instruction mirrors the
// interpreter's Step(): the step counter increments first (so blocking and
// failing instructions also count one step), then the effect, then the
// budget check on completed instructions only.
void EmitInst(const ir::Inst& inst, const ir::Module& module, int b, int i, std::string* out) {
  std::string& s = *out;
  const std::string at = std::to_string(b) + ", " + std::to_string(i);
  // Completed non-terminator instructions fall through to the next slot.
  const std::string next = "EFEU_NEXT(" + std::to_string(b) + ", " + std::to_string(i + 1) +
                           ", " + Label(b, i + 1) + ");\n";
  s += Label(b, i) + ":\n  ++steps;\n";
  switch (inst.op) {
    case ir::Opcode::kConst:
      // Truncation folded at emit time: the operand is a compile-time value.
      s += "  " + Slot(inst.dst) + " = " + Int32Lit(inst.type.Truncate(inst.imm)) + ";\n  " + next;
      break;
    case ir::Opcode::kCopy:
      s += "  " + Slot(inst.dst) + " = " + Truncated(inst.type, Slot(inst.a)) + ";\n  " + next;
      break;
    case ir::Opcode::kUnOp: {
      std::string expr;
      switch (inst.unop) {
        case esm::UnaryOp::kPlus:
          expr = Slot(inst.a);
          break;
        case esm::UnaryOp::kNegate:
          expr = "(int32_t)(-(int64_t)" + Slot(inst.a) + ")";
          break;
        case esm::UnaryOp::kBitNot:
          expr = "(~" + Slot(inst.a) + ")";
          break;
        case esm::UnaryOp::kLogicalNot:
          expr = "(" + Slot(inst.a) + " == 0 ? 1 : 0)";
          break;
      }
      s += "  " + Slot(inst.dst) + " = " + expr + ";\n  " + next;
      break;
    }
    case ir::Opcode::kBinOp: {
      const std::string a = Slot(inst.a);
      const std::string bb = Slot(inst.b);
      switch (inst.binop) {
        case esm::BinaryOp::kDiv:
        case esm::BinaryOp::kMod:
          s += "  if (" + bb + " == 0) EFEU_STOP(" + at + ", 5);\n";
          s += "  " + Slot(inst.dst) + " = (int32_t)((int64_t)" + a + " " +
               ir::BinaryOpSpelling(inst.binop) + " (int64_t)" + bb + ");\n  " + next;
          break;
        case esm::BinaryOp::kShl:
        case esm::BinaryOp::kShr:
          // Shift amounts outside [0, 32) yield 0, like ir::EvalBinOp.
          s += "  { int64_t sh = " + bb + "; " + Slot(inst.dst) +
               " = (sh >= 0 && sh < 32) ? (int32_t)((int64_t)" + a + " " +
               ir::BinaryOpSpelling(inst.binop) + " sh) : 0; }\n  " + next;
          break;
        default:
          // Operands widen to int64, the result truncates to int32; the
          // comparison and logical operators yield 0/1 under the cast.
          s += "  " + Slot(inst.dst) + " = (int32_t)((int64_t)" + a + " " +
               ir::BinaryOpSpelling(inst.binop) + " (int64_t)" + bb + ");\n  " + next;
          break;
      }
      break;
    }
    case ir::Opcode::kLoadIdx:
      s += "  idx = " + Slot(inst.b) + ";\n";
      s += "  if (idx < 0 || idx >= " + std::to_string(inst.imm) + ") { *fail_aux = idx; EFEU_STOP(" +
           at + ", 6); }\n";
      s += "  " + Slot(inst.dst) + " = " +
           Truncated(inst.type, "frame[" + std::to_string(inst.a) + " + idx]") + ";\n  " + next;
      break;
    case ir::Opcode::kStoreIdx:
      s += "  idx = " + Slot(inst.b) + ";\n";
      s += "  if (idx < 0 || idx >= " + std::to_string(inst.imm) + ") { *fail_aux = idx; EFEU_STOP(" +
           at + ", 6); }\n";
      s += "  frame[" + std::to_string(inst.dst) + " + idx] = " +
           Truncated(inst.type, Slot(inst.a)) + ";\n  " + next;
      break;
    case ir::Opcode::kSend:
      s += "  EFEU_STOP(" + at + ", 1);\n";
      break;
    case ir::Opcode::kRecv:
      s += "  EFEU_STOP(" + at + ", 2);\n";
      break;
    case ir::Opcode::kNondet:
      s += "  EFEU_STOP(" + at + ", 3);\n";
      break;
    case ir::Opcode::kAssert:
      s += "  if (" + Slot(inst.a) + " == 0) EFEU_STOP(" + at + ", 7);\n  " + next;
      break;
    case ir::Opcode::kJump: {
      if (module.blocks[inst.target].is_progress_label) {
        s += "  *progress = 1;\n";
      }
      s += "  EFEU_NEXT(" + std::to_string(inst.target) + ", 0, " + Label(inst.target, 0) + ");\n";
      break;
    }
    case ir::Opcode::kBranch: {
      s += "  if (" + Slot(inst.a) + " != 0) {\n";
      if (module.blocks[inst.target].is_progress_label) {
        s += "    *progress = 1;\n";
      }
      s += "    EFEU_NEXT(" + std::to_string(inst.target) + ", 0, " + Label(inst.target, 0) + ");\n";
      s += "  }\n";
      if (module.blocks[inst.target2].is_progress_label) {
        s += "  *progress = 1;\n";
      }
      s += "  EFEU_NEXT(" + std::to_string(inst.target2) + ", 0, " + Label(inst.target2, 0) + ");\n";
      break;
    }
    case ir::Opcode::kHalt:
      s += "  EFEU_STOP(" + at + ", 4);\n";
      break;
  }
}

std::string EmitPrelude() {
  return R"(/* Generated by the Efeu compiled execution tier (src/vm/compiled.cc).
 * Step function return codes: 0 budget/runnable, 1 send, 2 recv, 3 nondet,
 * 4 halt, 5 div-by-zero, 6 index out of bounds (*fail_aux), 7 assert failed.
 * The canonical pc (*block, *inst_index) and *steps_io are synced on every
 * return, so host-side error formatting and message spans see the same state
 * the interpreter would leave behind. */
#include <stdint.h>

#define EFEU_SYNC(B, I) do { *block = (B); *inst_index = (I); *steps_io = steps; } while (0)
#define EFEU_STOP(B, I, RC) do { EFEU_SYNC(B, I); return (RC); } while (0)
#define EFEU_NEXT(B, I, LBL) \
  do { if (max_steps != 0 && ++executed >= max_steps) EFEU_STOP(B, I, 0); goto LBL; } while (0)

)";
}

void EmitBody(const ir::Module& module, const std::string& symbol, std::string* out) {
  std::string& s = *out;
  s += "int32_t " + symbol +
       "(int32_t* restrict frame, int32_t* restrict block,\n"
       "    int32_t* restrict inst_index, uint64_t* restrict steps_io,\n"
       "    uint64_t max_steps, int32_t* restrict fail_aux, int32_t* restrict progress) {\n"
       "  uint64_t steps = *steps_io;\n"
       "  uint64_t executed = 0;\n"
       "  int32_t idx = 0;\n"
       "  (void)idx; (void)fail_aux; (void)progress;\n";
  // Entry dispatch: resume at the canonical pc (any slot is a legal resume
  // point after a budget stop or a completed blocking instruction).
  s += "  switch (*block) {\n";
  for (size_t b = 0; b < module.blocks.size(); ++b) {
    s += "    case " + std::to_string(b) + ": switch (*inst_index) {\n";
    for (size_t i = 0; i < module.blocks[b].insts.size(); ++i) {
      s += "      case " + std::to_string(i) + ": goto " + Label(static_cast<int>(b),
                                                                static_cast<int>(i)) + ";\n";
    }
    s += "      default: break;\n    } break;\n";
  }
  s += "    default: break;\n  }\n  *steps_io = steps;\n  return 4;\n";
  for (size_t b = 0; b < module.blocks.size(); ++b) {
    for (size_t i = 0; i < module.blocks[b].insts.size(); ++i) {
      EmitInst(module.blocks[b].insts[i], module, static_cast<int>(b), static_cast<int>(i), &s);
    }
  }
  s += "}\n\n";
}

// -- Compilation pipeline -----------------------------------------------------

struct DlHandleCloser {
  void operator()(void* handle) const {
    if (handle != nullptr) {
      dlclose(handle);
    }
  }
};

// Writes `source`, invokes the host C compiler, dlopens the result. The
// on-disk artifacts are deleted immediately (the mapping survives dlopen).
std::shared_ptr<void> CompileSharedObject(const std::string& source) {
  char dir[] = "/tmp/efeu_vm_XXXXXX";
  if (mkdtemp(dir) == nullptr) {
    return nullptr;
  }
  const std::string c_path = std::string(dir) + "/m.c";
  const std::string so_path = std::string(dir) + "/m.so";
  {
    std::ofstream out(c_path);
    out << source;
    if (!out.good()) {
      std::remove(c_path.c_str());
      rmdir(dir);
      return nullptr;
    }
  }
  const std::string cmd = std::string(CompilerPath()) + " -std=c99 -O2 -fPIC -shared -o " +
                          so_path + " " + c_path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  void* handle = nullptr;
  if (rc == 0) {
    handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  std::remove(so_path.c_str());
  std::remove(c_path.c_str());
  rmdir(dir);
  if (handle == nullptr) {
    return nullptr;
  }
  return std::shared_ptr<void>(handle, DlHandleCloser());
}

// Content-addressed artifact cache: key = emitted per-module C source (with
// the canonical symbol name), so recycled ir::Module addresses can never hit
// a stale artifact and the fuzzer's structurally repeated modules share one
// shared object. Bounded FIFO eviction; live executors keep evicted entries
// alive through their shared_ptr.
constexpr size_t kMaxCachedArtifacts = 256;
constexpr char kCanonicalSymbol[] = "efeu_step";

struct ArtifactCache {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const CompiledModule>> by_source;
  std::list<std::string> order;
};

ArtifactCache& Cache() {
  static ArtifactCache* cache = new ArtifactCache();
  return *cache;
}

void InsertLocked(ArtifactCache& cache, std::string key,
                  std::shared_ptr<const CompiledModule> artifact) {
  cache.order.push_back(key);
  cache.by_source.emplace(std::move(key), std::move(artifact));
  while (cache.by_source.size() > kMaxCachedArtifacts) {
    cache.by_source.erase(cache.order.front());
    cache.order.pop_front();
  }
}

}  // namespace

bool CompiledTierAvailable() {
  static const bool available = [] {
    if (std::getenv("EFEU_NO_COMPILED_TIER") != nullptr) {
      return false;
    }
    const std::string cmd = std::string(CompilerPath()) + " --version >/dev/null 2>&1";
    return std::system(cmd.c_str()) == 0;
  }();
  return available;
}

std::string CompiledModule::EmitC(const ir::Module& module, const std::string& symbol) {
  std::string source = EmitPrelude();
  EmitBody(module, symbol, &source);
  return source;
}

std::shared_ptr<const CompiledModule> CompiledModule::Get(const ir::Module& module) {
  if (!CompiledTierAvailable()) {
    return nullptr;
  }
  std::string key = EmitC(module, kCanonicalSymbol);
  ArtifactCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  auto it = cache.by_source.find(key);
  if (it != cache.by_source.end()) {
    return it->second;
  }
  std::shared_ptr<void> handle = CompileSharedObject(key);
  if (handle == nullptr) {
    return nullptr;
  }
  auto fn = reinterpret_cast<StepFn>(dlsym(handle.get(), kCanonicalSymbol));
  if (fn == nullptr) {
    return nullptr;
  }
  auto artifact = std::make_shared<const CompiledModule>(std::move(handle), fn);
  InsertLocked(cache, std::move(key), artifact);
  return artifact;
}

int CompiledModule::Precompile(std::span<const ir::Module* const> modules) {
  if (!CompiledTierAvailable()) {
    return 0;
  }
  ArtifactCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  // One translation unit, one compiler invocation, one dlopen for every
  // module that is not already cached; the handle is shared by all of them.
  std::vector<std::pair<std::string, std::string>> pending;  // (key, symbol)
  std::string batch = EmitPrelude();
  int available = 0;
  for (const ir::Module* module : modules) {
    std::string key = EmitC(*module, kCanonicalSymbol);
    if (cache.by_source.count(key) != 0) {
      ++available;
      continue;
    }
    std::string symbol = std::string(kCanonicalSymbol) + "_" + std::to_string(pending.size());
    EmitBody(*module, symbol, &batch);
    pending.emplace_back(std::move(key), std::move(symbol));
  }
  if (pending.empty()) {
    return available;
  }
  std::shared_ptr<void> handle = CompileSharedObject(batch);
  if (handle == nullptr) {
    return available;
  }
  for (auto& [key, symbol] : pending) {
    auto fn = reinterpret_cast<StepFn>(dlsym(handle.get(), symbol.c_str()));
    if (fn == nullptr) {
      continue;
    }
    InsertLocked(cache, std::move(key), std::make_shared<const CompiledModule>(handle, fn));
    ++available;
  }
  return available;
}

// -- Executor entry point -----------------------------------------------------

RunState IrExecutor::RunCompiled(uint64_t max_steps) {
  if (compiled_ == nullptr && !compiled_unavailable_) {
    compiled_ = CompiledModule::Get(*module_);
    if (compiled_ == nullptr) {
      compiled_unavailable_ = true;
    }
  }
  if (compiled_ == nullptr) {
    return RunInterp(max_steps);
  }
  int32_t block = block_;
  int32_t inst_index = inst_index_;
  int32_t fail_aux = 0;
  int32_t progress = progress_seen_ ? 1 : 0;
  const int32_t rc = compiled_->step()(frame_.data(), &block, &inst_index, &steps_, max_steps,
                                       &fail_aux, &progress);
  block_ = block;
  inst_index_ = inst_index;
  progress_seen_ = progress != 0;
  switch (rc) {
    case CompiledModule::kStopBudget:
      break;  // state stays kRunnable
    case CompiledModule::kStopSend:
      state_ = RunState::kBlockedSend;
      break;
    case CompiledModule::kStopRecv:
      state_ = RunState::kBlockedRecv;
      break;
    case CompiledModule::kStopNondet:
      state_ = RunState::kBlockedNondet;
      break;
    case CompiledModule::kStopHalt:
      state_ = RunState::kHalted;
      break;
    case CompiledModule::kStopDivZero:
      FailDivZero(CurrentInst());
      break;
    case CompiledModule::kStopOob:
      FailOutOfBounds(CurrentInst(), fail_aux);
      break;
    case CompiledModule::kStopAssert:
      FailAssert(CurrentInst());
      break;
    default:
      Fail(RunState::kRuntimeError,
           module_->layer_name + ": compiled tier returned unknown status " + std::to_string(rc));
      break;
  }
  return state_;
}

}  // namespace efeu::vm
