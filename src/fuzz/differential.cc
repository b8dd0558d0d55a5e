#include "src/fuzz/differential.h"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/analysis/sym/symexec.h"
#include "src/check/checker.h"
#include "src/check/ir_process.h"
#include "src/check/native_process.h"
#include "src/codegen/c/c_backend.h"
#include "src/ir/compile.h"
#include "src/rtl/rtl_module.h"
#include "src/rtl/system.h"
#include "src/vm/system.h"

namespace efeu::fuzz {
namespace {

using Stimuli = std::vector<std::vector<int32_t>>;

std::string FormatWords(std::span<const int32_t> words) {
  std::string out = "[";
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) {
      out += " ";
    }
    out += std::to_string(words[i]);
  }
  return out + "]";
}

bool IsEnvChannel(const esi::ChannelInfo* channel) {
  return channel->from == "Env" || channel->to == "Env";
}

std::string ChannelKey(const esi::ChannelInfo* channel) {
  return channel->from + "->" + channel->to;
}

// Flattened values of the named-variable slots of `module`'s frame — the
// observable memory of a layer once temps/stage slots are excluded.
std::vector<int32_t> ExtractVars(const ir::Module& module, std::span<const int32_t> frame) {
  std::vector<int32_t> vars;
  for (const ir::SlotInfo& slot : module.slots) {
    if (slot.slot_class != ir::SlotClass::kVar) {
      continue;
    }
    for (int i = 0; i < slot.size; ++i) {
      vars.push_back(frame[slot.offset + i]);
    }
  }
  return vars;
}

// The entry layer: the defined layer adjacent to Env.
const ir::Module* FindEntryModule(const ir::Compilation& compilation) {
  for (const ir::Module& module : compilation.modules()) {
    for (const ir::Port& port : module.ports) {
      if (port.channel->from == "Env" || port.channel->to == "Env") {
        return &module;
      }
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// VM target
// ---------------------------------------------------------------------------

TargetTrace RunVmTarget(const ir::Compilation& compilation, const std::string& entry,
                        const Stimuli& stimuli) {
  TargetTrace trace;
  vm::System system;
  std::map<std::string, int> pid;
  for (const ir::Module& module : compilation.modules()) {
    pid[module.layer_name] = system.AddProcess(&module, module.layer_name);
  }
  for (const ir::Module& module : compilation.modules()) {
    for (size_t p = 0; p < module.ports.size(); ++p) {
      const ir::Port& port = module.ports[p];
      if (!port.is_send) {
        continue;
      }
      auto it = pid.find(port.channel->to);
      if (it == pid.end()) {
        continue;  // External (Env) port; the schedule below drives it.
      }
      const ir::Module& peer = compilation.modules()[it->second];
      int recv = peer.FindPort(port.channel, /*is_send=*/false);
      system.Connect(vm::PortRef{pid[module.layer_name], static_cast<int>(p)},
                     vm::PortRef{it->second, recv});
    }
  }
  system.SetTransferObserver(
      [&](vm::PortRef sender, vm::PortRef receiver, std::span<const int32_t> message) {
        if (sender.process < 0 || receiver.process < 0) {
          return;  // Externally completed exchange; the harness logs those itself.
        }
        const esi::ChannelInfo* channel =
            system.executor(sender.process).module().ports[sender.port].channel;
        if (!IsEnvChannel(channel)) {
          trace.channel_msgs[ChannelKey(channel)].emplace_back(message.begin(), message.end());
        }
      });

  const esi::ChannelInfo* down = compilation.system().FindChannel("Env", entry);
  const esi::ChannelInfo* up = compilation.system().FindChannel(entry, "Env");
  vm::PortRef down_ref = system.FindPort(pid[entry], down, /*is_send=*/false);
  vm::PortRef up_ref = system.FindPort(pid[entry], up, /*is_send=*/true);

  auto classify_failure = [&]() {
    trace.failed_step = static_cast<int>(trace.replies.size());
    trace.error = system.error();
    trace.verdict = Verdict::kStuck;
    bool runtime = false;
    for (int p = 0; p < system.process_count(); ++p) {
      if (system.executor(p).state() == vm::RunState::kAssertFailed) {
        trace.verdict = Verdict::kAssertFailed;
        return;
      }
      runtime = runtime || system.executor(p).state() == vm::RunState::kRuntimeError;
    }
    if (runtime) {
      trace.verdict = Verdict::kRuntimeError;
    }
  };

  if (system.Run() == vm::SystemState::kFailed) {
    classify_failure();
    return trace;
  }
  for (size_t s = 0; s < stimuli.size(); ++s) {
    if (!system.DeliverMessage(down_ref, stimuli[s])) {
      trace.verdict = Verdict::kStuck;
      trace.failed_step = static_cast<int>(s);
      trace.error = "entry layer not ready for command " + std::to_string(s);
      return trace;
    }
    if (system.Run() == vm::SystemState::kFailed) {
      classify_failure();
      return trace;
    }
    std::optional<std::vector<int32_t>> reply = system.TakeMessage(up_ref);
    if (!reply.has_value()) {
      trace.verdict = Verdict::kStuck;
      trace.failed_step = static_cast<int>(s);
      trace.error = "no reply for command " + std::to_string(s);
      return trace;
    }
    trace.replies.push_back(std::move(*reply));
    // Let the entry run the receive half of its reply talk so it is ready
    // for the next command.
    if (system.Run() == vm::SystemState::kFailed) {
      classify_failure();
      return trace;
    }
  }
  trace.failed_step = static_cast<int>(stimuli.size());
  for (int p = 0; p < system.process_count(); ++p) {
    if (!system.executor(p).AtValidEndState()) {
      trace.verdict = Verdict::kStuck;
      trace.error = system.process_name(p) + " not at a valid end state after the schedule";
      return trace;
    }
  }
  trace.verdict = Verdict::kOk;
  for (int p = 0; p < system.process_count(); ++p) {
    trace.final_vars[system.process_name(p)] =
        ExtractVars(system.executor(p).module(), system.executor(p).frame());
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Checker target
// ---------------------------------------------------------------------------

// The deterministic Env: sends the scheduled commands in order, receives one
// reply after each, appending it to `recorder`. Valid end state == schedule
// exhausted.
class ScriptedEnvProcess : public check::NativeProcess {
 public:
  ScriptedEnvProcess(const esi::ChannelInfo* down, const esi::ChannelInfo* up,
                     const Stimuli* stimuli, Stimuli* recorder)
      : NativeProcess("Env"), stimuli_(stimuli), recorder_(recorder) {
    AddPort(down, /*is_send=*/true);
    AddPort(up, /*is_send=*/false);
    ResizeState(1);
  }

  bool AtValidEndState() const override {
    return current_state()[0] == 2 * static_cast<int32_t>(stimuli_->size());
  }

 protected:
  void InitState(std::vector<int32_t>& state) override { state.assign(1, 0); }

  PendingOp ComputePending(const std::vector<int32_t>& state) const override {
    PendingOp op;
    int32_t pos = state[0];
    if (pos >= 2 * static_cast<int32_t>(stimuli_->size())) {
      op.kind = vm::RunState::kHalted;
      return op;
    }
    if (pos % 2 == 0) {
      op.kind = vm::RunState::kBlockedSend;
      op.port = 0;
      op.message = (*stimuli_)[static_cast<size_t>(pos) / 2];
    } else {
      op.kind = vm::RunState::kBlockedRecv;
      op.port = 1;
    }
    return op;
  }

  void OnRecv(int, std::span<const int32_t> message, std::vector<int32_t>& state) override {
    recorder_->emplace_back(message.begin(), message.end());
    state[0] += 1;
  }

  void OnSendComplete(int, std::vector<int32_t>& state) override { state[0] += 1; }

 private:
  const Stimuli* stimuli_;
  Stimuli* recorder_;
};

struct BuiltCheckedSystem {
  check::CheckedSystem system;
  std::map<std::string, int> pid;  // defined layers only
  int env_id = -1;
};

std::unique_ptr<BuiltCheckedSystem> BuildCheckedSystem(const ir::Compilation& compilation,
                                                       const std::string& entry,
                                                       const Stimuli& stimuli,
                                                       Stimuli* recorder) {
  auto built = std::make_unique<BuiltCheckedSystem>();
  for (const ir::Module& module : compilation.modules()) {
    built->pid[module.layer_name] = built->system.AddModule(&module, module.layer_name);
  }
  const esi::ChannelInfo* down = compilation.system().FindChannel("Env", entry);
  const esi::ChannelInfo* up = compilation.system().FindChannel(entry, "Env");
  built->env_id = built->system.AddProcess(
      std::make_unique<ScriptedEnvProcess>(down, up, &stimuli, recorder));
  for (const ir::Module& module : compilation.modules()) {
    for (const ir::Port& port : module.ports) {
      if (!port.is_send) {
        continue;
      }
      int to = port.channel->to == "Env" ? built->env_id : built->pid.at(port.channel->to);
      built->system.ConnectByChannel(built->pid.at(module.layer_name), to, port.channel);
    }
    for (const ir::Port& port : module.ports) {
      if (port.is_send || port.channel->from != "Env") {
        continue;
      }
      built->system.ConnectByChannel(built->env_id, built->pid.at(module.layer_name),
                                     port.channel);
    }
  }
  return built;
}

TargetTrace RunCheckerTarget(const ir::Compilation& compilation, const std::string& entry,
                             const Stimuli& stimuli, const DifferentialOptions& options) {
  TargetTrace trace;
  Stimuli recorder;
  std::unique_ptr<BuiltCheckedSystem> built =
      BuildCheckedSystem(compilation, entry, stimuli, &recorder);
  check::CheckedSystem& system = built->system;

  auto classify_failure = [&](const check::Violation& violation) {
    trace.failed_step = static_cast<int>(recorder.size());
    trace.error = violation.message;
    switch (violation.kind) {
      case check::ViolationKind::kAssertionFailed:
        trace.verdict = Verdict::kAssertFailed;
        break;
      case check::ViolationKind::kRuntimeError:
        trace.verdict = Verdict::kRuntimeError;
        break;
      default:
        trace.verdict = Verdict::kStuck;
        break;
    }
  };

  // Deterministic walk of the transition relation: closure, then always the
  // first enabled transition. In a closed tree system with the scripted Env
  // this visits the unique Kahn behaviour.
  system.ResetAll();
  check::Violation violation;
  bool progress = false;
  if (!system.Closure(&violation, &progress)) {
    classify_failure(violation);
    trace.replies = std::move(recorder);
    return trace;
  }
  uint64_t transitions = 0;
  while (true) {
    std::vector<check::CheckedSystem::Transition> enabled = system.EnabledTransitions();
    if (enabled.empty()) {
      break;
    }
    const check::CheckedSystem::Transition& t = enabled.front();
    if (t.kind != check::CheckedSystem::Transition::Kind::kTransfer) {
      trace.verdict = Verdict::kRuntimeError;
      trace.failed_step = static_cast<int>(recorder.size());
      trace.error = "unexpected nondet choice in a fuzz spec";
      trace.replies = std::move(recorder);
      return trace;
    }
    const check::Process& sender = system.process(t.process);
    const esi::ChannelInfo* channel = sender.ports()[sender.blocked_port()].channel;
    if (!IsEnvChannel(channel)) {
      std::span<const int32_t> message = sender.PendingMessage();
      trace.channel_msgs[ChannelKey(channel)].emplace_back(message.begin(), message.end());
    }
    system.Apply(t);
    if (!system.Closure(&violation, &progress)) {
      classify_failure(violation);
      trace.replies = std::move(recorder);
      return trace;
    }
    if (++transitions > options.max_checker_transitions) {
      trace.verdict = Verdict::kStuck;
      trace.failed_step = static_cast<int>(recorder.size());
      trace.error = "checker walk transition budget exhausted";
      trace.replies = std::move(recorder);
      return trace;
    }
  }
  trace.replies = std::move(recorder);
  trace.failed_step = static_cast<int>(trace.replies.size());
  if (!system.AllAtValidEnd()) {
    trace.verdict = Verdict::kStuck;
    trace.error = system.DescribeBlockedProcesses();
    return trace;
  }
  trace.verdict = Verdict::kOk;
  for (const auto& [layer, id] : built->pid) {
    auto& process = static_cast<check::IrProcess&>(system.process(id));
    trace.final_vars[layer] =
        ExtractVars(process.executor().module(), process.executor().frame());
  }
  return trace;
}

// ---------------------------------------------------------------------------
// RTL target
// ---------------------------------------------------------------------------

// Env as a registered ready/valid hardware component, mirroring the generated
// FSMs' handshake discipline: outputs are registered, a transfer completes in
// the Evaluate() that samples both valid and ready high.
class ScriptedEnvRtl : public rtl::RtlComponent {
 public:
  ScriptedEnvRtl(rtl::HsWire* down, rtl::HsWire* up, const Stimuli* stimuli)
      : down_(down), up_(up), stimuli_(stimuli) {}

  const Stimuli& replies() const { return replies_; }

  void Evaluate() override {
    next_pos_ = pos_;
    next_valid_ = false;
    next_ready_ = false;
    int32_t end = 2 * static_cast<int32_t>(stimuli_->size());
    if (pos_ >= end) {
      return;
    }
    if (pos_ % 2 == 0) {
      if (out_valid_ && down_->ready) {
        next_pos_ = pos_ + 1;  // Transfer completed this cycle.
      } else {
        next_valid_ = true;
      }
    } else {
      if (out_ready_ && up_->valid) {
        replies_.emplace_back(up_->data);
        next_pos_ = pos_ + 1;
      } else {
        next_ready_ = true;
      }
    }
  }

  void Commit() override {
    pos_ = next_pos_;
    out_valid_ = next_valid_;
    out_ready_ = next_ready_;
    if (out_valid_) {
      down_->data = (*stimuli_)[static_cast<size_t>(pos_) / 2];
    }
    down_->valid = out_valid_;
    up_->ready = out_ready_;
  }

  // Idle while offering a command nobody takes yet, awaiting a reply nobody
  // sends yet, or done; without it the skipping RTL run would never skip.
  uint64_t IdleCycles() const override {
    if (down_->valid != out_valid_ || up_->ready != out_ready_ ||
        (out_valid_ && down_->data != (*stimuli_)[static_cast<size_t>(pos_) / 2])) {
      return 0;
    }
    if (pos_ >= 2 * static_cast<int32_t>(stimuli_->size())) {
      return out_valid_ || out_ready_ ? 0 : rtl::kIdleForever;
    }
    if (pos_ % 2 == 0) {
      return out_valid_ && !out_ready_ && !down_->ready ? rtl::kIdleForever : 0;
    }
    return out_ready_ && !out_valid_ && !up_->valid ? rtl::kIdleForever : 0;
  }

 private:
  rtl::HsWire* down_;
  rtl::HsWire* up_;
  const Stimuli* stimuli_;
  Stimuli replies_;
  int32_t pos_ = 0;
  bool out_valid_ = false;
  bool out_ready_ = false;
  int32_t next_pos_ = 0;
  bool next_valid_ = false;
  bool next_ready_ = false;
};

// One RTL run: the differential trace plus what the per-edge and the
// skipping clock are compared on.
struct RtlRun {
  TargetTrace trace;
  std::vector<uint64_t> reply_cycles;  // clock cycle each reply landed at
  std::map<std::string, std::vector<int32_t>> frames;  // full final frames
  uint64_t cycles = 0;
  uint64_t cycles_ticked = 0;
};

// Clocks the generated FSMs per edge (Tick), or stepping over idle spans
// (`skip_idle`), with no other difference.
RtlRun RunRtlTarget(const ir::Compilation& compilation, const std::string& entry,
                    const Stimuli& stimuli, const DifferentialOptions& options, bool skip_idle) {
  RtlRun run;
  TargetTrace& trace = run.trace;
  rtl::RtlSystem system;
  std::vector<std::unique_ptr<rtl::RtlModule>> modules;
  std::map<std::string, rtl::RtlModule*> by_layer;
  for (const ir::Module& module : compilation.modules()) {
    modules.push_back(std::make_unique<rtl::RtlModule>(&module, module.layer_name));
    by_layer[module.layer_name] = modules.back().get();
    system.AddComponent(modules.back().get());
  }
  rtl::HsWire* down_wire = nullptr;
  rtl::HsWire* up_wire = nullptr;
  std::vector<std::pair<rtl::HsWire*, const esi::ChannelInfo*>> internal;
  for (const ir::Module& module : compilation.modules()) {
    rtl::RtlModule* self = by_layer.at(module.layer_name);
    for (size_t p = 0; p < module.ports.size(); ++p) {
      const ir::Port& port = module.ports[p];
      rtl::HsWire* wire = system.CreateWire(port.channel->flat_size);
      if (port.is_send) {
        self->BindPort(static_cast<int>(p), wire);
        if (port.channel->to == "Env") {
          up_wire = wire;
        } else {
          rtl::RtlModule* peer = by_layer.at(port.channel->to);
          peer->BindPort(peer->module().FindPort(port.channel, /*is_send=*/false), wire);
          internal.emplace_back(wire, port.channel);
        }
      } else if (port.channel->from == "Env") {
        self->BindPort(static_cast<int>(p), wire);
        down_wire = wire;
      }
      // Internal receive ports were bound when their sender was visited.
    }
  }
  ScriptedEnvRtl env(down_wire, up_wire, &stimuli);
  system.AddComponent(&env);

  // A transfer edge is never idle, so probing after every step sees every
  // transfer in both clocking modes.
  auto step = [&](uint64_t end) {
    if (skip_idle) {
      system.Step(end - system.cycles());
    } else {
      system.Tick();
    }
    for (const auto& [wire, channel] : internal) {
      if (wire->valid && wire->ready) {
        trace.channel_msgs[ChannelKey(channel)].push_back(wire->data);
      }
    }
    while (run.reply_cycles.size() < env.replies().size()) {
      run.reply_cycles.push_back(system.cycles());
    }
  };
  while (env.replies().size() < stimuli.size() && system.cycles() < options.max_rtl_cycles) {
    step(options.max_rtl_cycles);
  }
  trace.replies = env.replies();
  trace.failed_step = static_cast<int>(trace.replies.size());
  if (env.replies().size() < stimuli.size()) {
    trace.verdict = Verdict::kStuck;
    trace.error = "cycle budget exhausted after " + std::to_string(system.cycles()) +
                  " cycles (" + std::to_string(env.replies().size()) + " replies)";
  } else {
    // Let the layers drain past their reply talks back to their idle receive
    // states before sampling frames. No internal transfer remains pending
    // (the last Env reply is causally after them all), but keep probing
    // anyway so a late transfer would surface as a channel-sequence
    // divergence.
    const uint64_t drained = system.cycles() + 500;
    while (system.cycles() < drained) {
      step(drained);
    }
    trace.verdict = Verdict::kOk;
    for (const auto& [layer, module] : by_layer) {
      trace.final_vars[layer] = ExtractVars(module->module(), module->frame());
    }
  }
  for (const auto& [layer, module] : by_layer) {
    run.frames[layer].assign(module->frame().begin(), module->frame().end());
  }
  run.cycles = system.cycles();
  run.cycles_ticked = system.cycles_ticked();
  return run;
}

// ---------------------------------------------------------------------------
// Generated-C target
// ---------------------------------------------------------------------------

// The dlopen'd entry shim: unflattens one command into the entry struct,
// invokes the generated driver, flattens the reply. EFEU_ASSERT is predefined
// (via -include) to longjmp here so generated assertion failures surface as a
// return code instead of aborting the harness process.
std::string BuildHarnessC(const esi::ChannelInfo& down, const esi::ChannelInfo& up,
                          const std::string& entry) {
  std::ostringstream out;
  out << "#include <setjmp.h>\n";
  out << "#include <string.h>\n";
  out << "#include \"efeu_gen.h\"\n\n";
  out << "static jmp_buf efeu_fuzz_jb;\n";
  out << "void efeu_fuzz_assert_fail(void) { longjmp(efeu_fuzz_jb, 1); }\n\n";
  out << "int efeu_fuzz_step(const int* in, int* out) {\n";
  out << "  struct " << down.MessageStructName() << " m;\n";
  out << "  struct " << up.MessageStructName() << " r;\n";
  out << "  memset(&m, 0, sizeof m);\n";
  out << "  memset(&r, 0, sizeof r);\n";
  for (const esi::FieldInfo& field : down.fields) {
    std::string cast =
        "(" + codegen::CTypeName(field.type.IsArray() ? field.type.Element() : field.type) + ")";
    if (field.type.IsArray()) {
      for (int i = 0; i < field.type.array_size; ++i) {
        out << "  m." << field.name << "[" << i << "] = " << cast << "(in["
            << field.flat_offset + i << "]);\n";
      }
    } else {
      out << "  m." << field.name << " = " << cast << "(in[" << field.flat_offset << "]);\n";
    }
  }
  out << "  if (setjmp(efeu_fuzz_jb)) return 1;\n";
  out << "  " << entry << "_invoke(m, &r);\n";
  for (const esi::FieldInfo& field : up.fields) {
    if (field.type.IsArray()) {
      for (int i = 0; i < field.type.array_size; ++i) {
        out << "  out[" << field.flat_offset + i << "] = (int)(r." << field.name << "[" << i
            << "]);\n";
      }
    } else {
      out << "  out[" << field.flat_offset << "] = (int)(r." << field.name << ");\n";
    }
  }
  out << "  return 0;\n";
  out << "}\n";
  return out.str();
}

constexpr const char* kPreludeH =
    "void efeu_fuzz_assert_fail(void);\n"
    "#define EFEU_ASSERT(cond) do { if (!(cond)) efeu_fuzz_assert_fail(); } while (0)\n";

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  return out.good();
}

std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TargetTrace RunCTarget(const ir::Compilation& compilation, const std::string& entry,
                       const Stimuli& stimuli, const DifferentialOptions& options) {
  TargetTrace trace;
  codegen::COutput output = codegen::GenerateC(compilation, entry);
  std::string tmpl = options.scratch_dir + "/efeu_fuzz_XXXXXX";
  std::vector<char> dir_buf(tmpl.begin(), tmpl.end());
  dir_buf.push_back('\0');
  if (mkdtemp(dir_buf.data()) == nullptr) {
    trace.error = "mkdtemp failed under " + options.scratch_dir;
    return trace;
  }
  std::string dir = dir_buf.data();
  auto cleanup = [&]() { std::system(("rm -rf " + dir).c_str()); };

  const esi::ChannelInfo* down = compilation.system().FindChannel("Env", entry);
  const esi::ChannelInfo* up = compilation.system().FindChannel(entry, "Env");
  bool wrote = WriteTextFile(dir + "/efeu_gen.h", output.header) &&
               WriteTextFile(dir + "/pre.h", kPreludeH) &&
               WriteTextFile(dir + "/harness.c", BuildHarnessC(*down, *up, entry));
  std::string sources = dir + "/harness.c";
  for (const auto& [layer, text] : output.layers) {
    wrote = wrote && WriteTextFile(dir + "/" + layer + ".c", text);
    sources += " " + dir + "/" + layer + ".c";
  }
  if (!wrote) {
    trace.error = "failed to write generated sources under " + dir;
    cleanup();
    return trace;
  }
  std::string command = "cc -std=c99 -O1 -shared -fPIC -include " + dir + "/pre.h -I" + dir +
                        " -o " + dir + "/libgen.so " + sources + " 2> " + dir + "/cc.log";
  if (std::system(command.c_str()) != 0) {
    // An accepted spec whose generated C does not compile IS a divergence.
    trace.error = "cc failed:\n" + ReadTextFile(dir + "/cc.log");
    cleanup();
    return trace;
  }
  void* handle = dlopen((dir + "/libgen.so").c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    trace.error = std::string("dlopen failed: ") + dlerror();
    cleanup();
    return trace;
  }
  using StepFn = int (*)(const int*, int*);
  auto step = reinterpret_cast<StepFn>(dlsym(handle, "efeu_fuzz_step"));
  if (step == nullptr) {
    trace.error = "dlsym(efeu_fuzz_step) failed";
    dlclose(handle);
    cleanup();
    return trace;
  }
  trace.verdict = Verdict::kOk;
  for (size_t s = 0; s < stimuli.size(); ++s) {
    std::vector<int32_t> reply(static_cast<size_t>(up->flat_size), 0);
    if (step(stimuli[s].data(), reply.data()) != 0) {
      trace.verdict = Verdict::kAssertFailed;
      trace.failed_step = static_cast<int>(s);
      trace.error = "generated EFEU_ASSERT fired during command " + std::to_string(s);
      break;
    }
    trace.replies.push_back(std::move(reply));
  }
  if (trace.verdict == Verdict::kOk) {
    trace.failed_step = static_cast<int>(stimuli.size());
  }
  dlclose(handle);
  cleanup();
  return trace;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

bool CompareReplyLists(const std::string& name, const TargetTrace& reference,
                       const TargetTrace& candidate, std::string* why) {
  if (reference.replies.size() != candidate.replies.size()) {
    *why = name + ": completed " + std::to_string(candidate.replies.size()) +
           " replies, vm completed " + std::to_string(reference.replies.size());
    return false;
  }
  for (size_t i = 0; i < reference.replies.size(); ++i) {
    if (reference.replies[i] != candidate.replies[i]) {
      *why = name + ": reply " + std::to_string(i) + " mismatch: vm=" +
             FormatWords(reference.replies[i]) + " " + name + "=" +
             FormatWords(candidate.replies[i]);
      return false;
    }
  }
  return true;
}

bool CompareChannelMsgs(const std::string& name, const TargetTrace& reference,
                        const TargetTrace& candidate, std::string* why) {
  if (reference.channel_msgs == candidate.channel_msgs) {
    return true;
  }
  for (const auto& [key, msgs] : reference.channel_msgs) {
    auto it = candidate.channel_msgs.find(key);
    size_t have = it == candidate.channel_msgs.end() ? 0 : it->second.size();
    if (have != msgs.size()) {
      *why = name + ": channel " + key + " carried " + std::to_string(have) +
             " messages, vm saw " + std::to_string(msgs.size());
      return false;
    }
    for (size_t i = 0; i < msgs.size(); ++i) {
      if (it->second[i] != msgs[i]) {
        *why = name + ": channel " + key + " message " + std::to_string(i) +
               " mismatch: vm=" + FormatWords(msgs[i]) + " " + name + "=" +
               FormatWords(it->second[i]);
        return false;
      }
    }
  }
  *why = name + ": extra internal channel traffic absent from the vm trace";
  return false;
}

bool CompareFinalVars(const std::string& name, const TargetTrace& reference,
                      const TargetTrace& candidate, std::string* why) {
  for (const auto& [layer, vars] : reference.final_vars) {
    auto it = candidate.final_vars.find(layer);
    if (it == candidate.final_vars.end() || it->second != vars) {
      *why = name + ": final variables of " + layer + " mismatch: vm=" + FormatWords(vars) +
             " " + name + "=" +
             (it == candidate.final_vars.end() ? std::string("<missing>")
                                               : FormatWords(it->second));
      return false;
    }
  }
  return true;
}

// Full comparison against the VM reference. `compare_internals` covers the
// channel message sequences and final variables (targets that expose them).
bool CompareTraces(const std::string& name, const TargetTrace& reference,
                   const TargetTrace& candidate, bool compare_internals, std::string* why) {
  if (reference.verdict != candidate.verdict) {
    *why = name + ": verdict " + VerdictName(candidate.verdict) + " (" + candidate.error +
           "), vm verdict " + VerdictName(reference.verdict) + " (" + reference.error + ")";
    return false;
  }
  if (reference.failed_step != candidate.failed_step) {
    *why = name + ": verdict " + VerdictName(candidate.verdict) + " at step " +
           std::to_string(candidate.failed_step) + ", vm at step " +
           std::to_string(reference.failed_step);
    return false;
  }
  if (!CompareReplyLists(name, reference, candidate, why)) {
    return false;
  }
  if (compare_internals && !CompareChannelMsgs(name, reference, candidate, why)) {
    return false;
  }
  if (compare_internals && reference.verdict == Verdict::kOk &&
      !CompareFinalVars(name, reference, candidate, why)) {
    return false;
  }
  return true;
}

// Idle-cycle skipping must be invisible: the skipping run matches the
// per-edge one in trace, error text, reply cycles, frames and final cycle.
bool CompareRtlRuns(const RtlRun& per_edge, const RtlRun& skipping, std::string* why) {
  if (!CompareTraces("rtl-skip", per_edge.trace, skipping.trace, /*compare_internals=*/true,
                     why)) {
    return false;
  }
  if (skipping.trace.error != per_edge.trace.error) {
    *why = "rtl-skip: error text \"" + skipping.trace.error + "\", per-edge rtl \"" +
           per_edge.trace.error + "\"";
    return false;
  }
  for (size_t i = 0; i < per_edge.reply_cycles.size(); ++i) {
    if (skipping.reply_cycles[i] != per_edge.reply_cycles[i]) {
      *why = "rtl-skip: reply " + std::to_string(i) + " landed at cycle " +
             std::to_string(skipping.reply_cycles[i]) + ", per-edge rtl at " +
             std::to_string(per_edge.reply_cycles[i]);
      return false;
    }
  }
  for (const auto& [layer, frame] : per_edge.frames) {
    if (skipping.frames.at(layer) != frame) {
      *why = "rtl-skip: final frame of " + layer + " mismatch: per-edge=" + FormatWords(frame) +
             " skipping=" + FormatWords(skipping.frames.at(layer));
      return false;
    }
  }
  if (skipping.cycles != per_edge.cycles) {
    *why = "rtl-skip: ended at cycle " + std::to_string(skipping.cycles) + ", per-edge rtl at " +
           std::to_string(per_edge.cycles);
    return false;
  }
  return true;
}

}  // namespace

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kAssertFailed:
      return "assert-failed";
    case Verdict::kRuntimeError:
      return "runtime-error";
    case Verdict::kStuck:
      return "stuck";
    case Verdict::kReject:
      return "reject";
  }
  return "?";
}

bool HaveCCompiler() {
  static const bool have = std::system("cc --version > /dev/null 2>&1") == 0;
  return have;
}

DifferentialResult RunDifferential(const SpecModel& model, const DifferentialOptions& options) {
  return RunDifferential(model.RenderEsi(), model.RenderEsm(), model.stimuli, options);
}

DifferentialResult RunDifferential(const std::string& esi_text, const std::string& esm_text,
                                   const Stimuli& stimuli,
                                   const DifferentialOptions& options) {
  DifferentialResult result;
  DiagnosticEngine diag;
  std::unique_ptr<ir::Compilation> compilation = ir::Compile(esi_text, esm_text, diag);
  if (compilation == nullptr) {
    result.reject_reason = diag.RenderAll();
    return result;
  }
  const ir::Module* entry_module = FindEntryModule(*compilation);
  if (entry_module == nullptr) {
    result.reject_reason = "no defined layer is adjacent to Env";
    return result;
  }
  const std::string& entry = entry_module->layer_name;
  const esi::ChannelInfo* down = compilation->system().FindChannel("Env", entry);
  const esi::ChannelInfo* up = compilation->system().FindChannel(entry, "Env");
  if (down == nullptr || up == nullptr) {
    result.reject_reason = "Env interface must carry a channel in each direction";
    return result;
  }
  for (const std::vector<int32_t>& command : stimuli) {
    if (static_cast<int>(command.size()) != down->flat_size) {
      result.reject_reason = "schedule command arity does not match the Env command channel";
      return result;
    }
  }
  // Every internal port must have a counterpart, or the targets cannot be
  // wired identically (e.g. minimization disabled a parent's only talk to a
  // child: the parent module then has no ports for that channel while the
  // child still reads it).
  for (const ir::Module& module : compilation->modules()) {
    for (const ir::Port& port : module.ports) {
      const std::string& peer_name = port.is_send ? port.channel->to : port.channel->from;
      if (peer_name == "Env") {
        continue;
      }
      const ir::Module* peer = nullptr;
      for (const ir::Module& candidate : compilation->modules()) {
        if (candidate.layer_name == peer_name) {
          peer = &candidate;
          break;
        }
      }
      if (peer == nullptr || peer->FindPort(port.channel, !port.is_send) < 0) {
        result.reject_reason = "dangling channel " + port.channel->from + "->" +
                               port.channel->to + ": " + peer_name +
                               " has no matching port";
        return result;
      }
    }
  }
  result.accepted = true;

  result.vm = RunVmTarget(*compilation, entry, stimuli);
  std::string why;
  result.checker = RunCheckerTarget(*compilation, entry, stimuli, options);
  if (!CompareTraces("checker", result.vm, result.checker, /*compare_internals=*/true, &why)) {
    result.agree = false;
    result.divergence = why;
  }
  if (result.vm.verdict == Verdict::kOk) {
    const RtlRun per_edge =
        RunRtlTarget(*compilation, entry, stimuli, options, /*skip_idle=*/false);
    const RtlRun skipping =
        RunRtlTarget(*compilation, entry, stimuli, options, /*skip_idle=*/true);
    result.rtl = per_edge.trace;
    result.rtl_cycles = skipping.cycles;
    result.rtl_cycles_ticked = skipping.cycles_ticked;
    if (result.agree &&
        !CompareTraces("rtl", result.vm, result.rtl, /*compare_internals=*/true, &why)) {
      result.agree = false;
      result.divergence = why;
    }
    if (result.agree && !CompareRtlRuns(per_edge, skipping, &why)) {
      result.agree = false;
      result.divergence = why;
    }
    if (options.run_c && HaveCCompiler()) {
      result.c = RunCTarget(*compilation, entry, stimuli, options);
      result.c_ran = true;
      if (result.agree &&
          !CompareTraces("c", result.vm, result.c, /*compare_internals=*/false, &why)) {
        result.agree = false;
        result.divergence = why;
      }
    }
  }
  if (options.run_sym) {
    analysis::sym::SymOptions sym_options;
    sym_options.external_facts = analysis::sym::ExternalFacts::kTop;
    analysis::sym::CompilationSummary summary =
        analysis::sym::AnalyzeCompilationSym(*compilation, sym_options);
    result.sym_ran = true;
    for (const analysis::sym::ModuleSummary& m : summary.modules) {
      for (const analysis::sym::SiteVerdict& site : m.sites) {
        ++result.sym_obligations;
        if (site.proved && !site.assumed) {
          ++result.sym_proved;
        }
      }
    }
    bool any_assumed = false;
    result.sym_all_proved = summary.AllProved(&any_assumed) && !any_assumed;
    // With unconstrained externals a full proof is unconditional; any
    // failing execution of any schedule refutes it. The VM is the reference
    // trace, and the checker already compared against it.
    if (result.sym_all_proved && (result.vm.verdict == Verdict::kAssertFailed ||
                                  result.vm.verdict == Verdict::kRuntimeError)) {
      result.sym_consistent = false;
      result.sym_error = std::string("esmsym proved every obligation, but the vm run ") +
                         VerdictName(result.vm.verdict) + " at step " +
                         std::to_string(result.vm.failed_step) + ": " + result.vm.error;
    }
  }
  return result;
}

}  // namespace efeu::fuzz
