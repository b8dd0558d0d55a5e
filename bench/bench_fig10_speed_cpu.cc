// Reproduces Figure 10 (paper sections 5.2/5.3): achievable bus speed (top)
// and CPU usage (bottom) for the two baselines and every Efeu-generated
// hybrid split, in polling and interrupt-driven modes. Method mirrors the
// paper: 3 EEPROM reads of 14 bytes, SCL rising edges located in the captured
// waveform, instantaneous frequency = inverse of the gap between consecutive
// rising edges; CPU usage from a continuous-read steady state.
//
// The execution-mode ablation section runs one 24AA512 config per split under
// both VM tiers (interp / compiled) and reports host-side instruction
// throughput (IR instructions retired per second of host time spent inside
// the software VM). The modeled metrics (kHz, CPU%, IRQs) must
// be tier-invariant; only the host cost of dispatch changes.
//
// Flags: --json <path> writes the machine-readable report; --quick trims the
// ablation workload for CI smoke runs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/baselines.h"
#include "src/driver/hybrid.h"
#include "src/vm/compiled.h"
#include "src/vm/exec_mode.h"
#include "src/vm/executor.h"
#include "src/vm/system.h"

namespace efeu {
namespace {

struct PaperRef {
  double khz;
  double sd;
  double cpu;
};

void PrintRow(bench::Table& table, const std::string& name, const std::string& mode,
              const driver::DriverMetrics& metrics, const PaperRef& ref,
              bench::JsonReport* json) {
  if (json != nullptr) {
    json->AddRow()
        .Set("section", "fig10")
        .Set("driver", name)
        .Set("mode", mode)
        .Set("functional", metrics.functional)
        .Set("mean_khz", metrics.functional ? metrics.frequency.mean_khz : 0.0)
        .Set("sd_khz", metrics.functional ? metrics.frequency.stddev_khz : 0.0)
        .Set("cpu", metrics.functional ? metrics.cpu_usage : 0.0)
        .Set("paper_khz", ref.khz);
  }
  if (!metrics.functional) {
    table.Row({name, mode, "n/a", "n/a", "n/a", bench::Fmt(ref.khz, 1), metrics.note});
    return;
  }
  table.Row({name, mode, bench::Fmt(metrics.frequency.mean_khz, 2),
             bench::Fmt(metrics.frequency.stddev_khz, 2),
             bench::Fmt(100 * metrics.cpu_usage, 1), bench::Fmt(ref.khz, 1), ""});
}

void RunFigure10(bench::JsonReport* json) {
  constexpr int kOps = 3;
  constexpr int kLen = 14;

  bench::PrintHeader(
      "Figure 10: achievable bus speed and CPU usage (3 reads of 14 bytes;\n"
      "paper column = mean kHz reported on the Zynq UltraScale+ testbed)");
  bench::Table table({13, 10, 10, 9, 8, 10, 40});
  table.Row({"Driver", "Mode", "kHz", "sd kHz", "CPU %", "paper", "note"});
  bench::PrintRule();

  driver::TimingModel timing;
  sim::EepromConfig eeprom;

  {
    driver::BitBangDriver bitbang(timing, eeprom, /*capture_waveform=*/true);
    PrintRow(table, "Bit-banging", "polling", bitbang.MeasureReads(kOps, kLen),
             {162.81, 12.85, 100}, json);
  }
  {
    driver::XilinxIpDriver xilinx(timing, eeprom, /*capture_waveform=*/true);
    PrintRow(table, "Xilinx I2C", "interrupt", xilinx.MeasureReads(kOps, kLen),
             {386.57, 23.75, 12}, json);
  }

  struct SplitRef {
    driver::SplitPoint split;
    PaperRef polling;
    PaperRef interrupt;
  };
  SplitRef splits[] = {
      {driver::SplitPoint::kElectrical, {154.44, 12.97, 100}, {0, 0, 0}},
      {driver::SplitPoint::kSymbol, {263.32, 12.77, 100}, {108.76, 0, 64}},
      {driver::SplitPoint::kByte, {359.98, 89.82, 100}, {342.90, 123.58, 36}},
      {driver::SplitPoint::kTransaction, {392.48, 33.25, 100}, {392.24, 36.36, 8}},
      {driver::SplitPoint::kEepDriver, {396.02, 10.37, 100}, {396.01, 10.34, 4}},
  };
  for (const SplitRef& split : splits) {
    for (bool interrupt_driven : {false, true}) {
      driver::HybridConfig config;
      config.split = split.split;
      config.interrupt_driven = interrupt_driven;
      config.capture_waveform = true;
      config.timing = timing;
      config.eeprom = eeprom;
      driver::HybridDriver hybrid(config);
      PrintRow(table, driver::SplitPointName(split.split),
               interrupt_driven ? "interrupt" : "polling", hybrid.MeasureReads(kOps, kLen),
               interrupt_driven ? split.interrupt : split.polling, json);
    }
  }

  std::printf(
      "\nExpected shape (paper section 5.5): bus speed rises monotonically with\n"
      "the split point; Electrical is comparable to bit-banging; Transaction and\n"
      "EepDriver reach the Xilinx IP's speed; the interrupt-driven Electrical\n"
      "driver does not function; polling drivers pin one core while interrupt-\n"
      "driven CPU usage falls from Symbol to EepDriver, below the Xilinx IP.\n");
}

// Instruction-throughput ablation across the two execution tiers: same
// 24AA512 workload, same modeled timeline, different host dispatch cost.
// Returns false when a modeled metric varies across tiers (equivalence
// violation) — the interesting tripwire; the speedup itself is reported, not
// asserted, because host timing is machine-dependent.
bool RunExecModeAblation(bench::JsonReport* json, bool quick) {
  const int ops = quick ? 3 : 8;
  const int len = 14;
  bench::PrintHeader(
      "Execution-mode ablation: IR instruction throughput per VM tier\n"
      "(24AA512 reads; modeled kHz/CPU/IRQs must be tier-invariant)");
  bench::Table table({13, 10, 12, 12, 14, 10, 9});
  table.Row({"Split", "Tier", "instr", "vm host ms", "Minstr/s", "kHz", "x interp"});
  bench::PrintRule();

  bool tiers_equivalent = true;
  // Split choice matters twice over: kElectrical runs every layer in the VM
  // (most total VM work), while the coarse splits run fewer, larger software
  // slices per boundary crossing — at kTransaction the software EepDriver
  // performs a whole transaction's worth of work between crossings, so the
  // per-crossing fixed cost (timer reads, worklist drain, executor re-entry)
  // amortizes and the dispatch ratio the tiers differ by becomes visible.
  // The ops multiplier equalizes measured host time across splits; coarse
  // splits retire far fewer instructions per operation.
  struct AblationConfig {
    driver::SplitPoint split;
    int ops_scale;
  };
  const AblationConfig ablation_splits[] = {
      {driver::SplitPoint::kElectrical, 1},
      {driver::SplitPoint::kSymbol, 2},
      {driver::SplitPoint::kByte, 6},
      {driver::SplitPoint::kTransaction, 12},
  };
  for (const AblationConfig& ablation : ablation_splits) {
    const driver::SplitPoint split = ablation.split;
    const int split_ops = ops * ablation.ops_scale;
    double interp_throughput = 0;
    driver::DriverMetrics reference;
    for (vm::ExecMode mode : {vm::ExecMode::kInterp, vm::ExecMode::kCompiled}) {
      driver::HybridConfig config;
      config.split = split;
      config.capture_waveform = true;
      config.exec_mode = mode;
      // Best-of-3: the modeled metrics are deterministic, so repeats only
      // de-noise the host-side timing (the quantity under study).
      driver::DriverMetrics metrics;
      for (int repeat = 0; repeat < 3; ++repeat) {
        driver::HybridDriver hybrid(config);
        driver::DriverMetrics sample = hybrid.MeasureReads(split_ops, len);
        if (repeat == 0 || !metrics.functional ||
            (sample.functional && sample.vm_host_seconds < metrics.vm_host_seconds)) {
          metrics = sample;
        }
      }
      if (!metrics.functional) {
        std::printf("%s/%s: NOT FUNCTIONAL (%s)\n", driver::SplitPointName(split),
                    vm::ExecModeName(mode), metrics.note.c_str());
        tiers_equivalent = false;
        continue;
      }
      if (mode == vm::ExecMode::kInterp) {
        reference = metrics;
      } else if (metrics.instructions_retired != reference.instructions_retired ||
                 metrics.elapsed_ns != reference.elapsed_ns ||
                 metrics.irq_count != reference.irq_count) {
        std::printf("%s/%s: modeled metrics diverge from interp!\n",
                    driver::SplitPointName(split), vm::ExecModeName(mode));
        tiers_equivalent = false;
      }
      double throughput = metrics.vm_host_seconds > 0
                              ? static_cast<double>(metrics.instructions_retired) /
                                    metrics.vm_host_seconds
                              : 0;
      if (mode == vm::ExecMode::kInterp) {
        interp_throughput = throughput;
      }
      double speedup = interp_throughput > 0 ? throughput / interp_throughput : 0;
      table.Row({driver::SplitPointName(split), vm::ExecModeName(mode),
                 std::to_string(metrics.instructions_retired),
                 bench::Fmt(metrics.vm_host_seconds * 1e3, 3),
                 bench::Fmt(throughput / 1e6, 2), bench::Fmt(metrics.frequency.mean_khz, 1),
                 bench::Fmt(speedup, 2)});
      std::printf("  %s\n", driver::FormatExecCounters(metrics).c_str());
      if (json != nullptr) {
        json->AddRow()
            .Set("section", "exec_mode_ablation")
            .Set("split", driver::SplitPointName(split))
            .Set("exec_mode", vm::ExecModeName(mode))
            .Set("ops", split_ops)
            .Set("instructions_retired", metrics.instructions_retired)
            .Set("vm_host_seconds", metrics.vm_host_seconds)
            .Set("instr_per_second", throughput)
            .Set("speedup_vs_interp", speedup)
            .Set("mean_khz", metrics.frequency.mean_khz)
            .Set("cpu", metrics.cpu_usage)
            .Set("irq_count", metrics.irq_count);
      }
    }
  }
  std::printf(
      "\nThe modeled timeline is tier-invariant; the speedup column is host\n"
      "dispatch cost only. The compiled tier's first run pays one cc+dlopen\n"
      "per module (cached content-addressed afterwards).\n");
  return tiers_equivalent;
}

// -- Dispatch replay ----------------------------------------------------------
// The ablation above measures the full driver path, where each boundary pump
// carries fixed costs (timer pair, worklist drain, executor re-entry) that cap
// the visible tier ratio. This section isolates pure dispatch on the same real
// workload: it records each software module's message-consumption order from a
// live 24AA512 session (via the transfer observer, which reports external
// completions with kExternalPort), then replays every module directly through
// IrExecutor per tier with whole-loop timing — two clock reads per timed run,
// zero per-slice instrumentation.

struct ModuleTrace {
  const ir::Module* module = nullptr;
  std::string name;
  std::vector<std::vector<int32_t>> recvs;
};

// Re-executes one module against its recorded message diet. Deterministic
// given the recv contents, so every tier retires the identical instruction
// sequence; returns the retired count. The guard bounds a (spec-bug) module
// that sends forever after its diet runs out.
uint64_t ReplayTrace(vm::IrExecutor& ex, const ModuleTrace& trace) {
  ex.Reset();
  size_t idx = 0;
  ex.Run();
  const size_t guard_limit = trace.recvs.size() * 8 + 1024;
  for (size_t guard = 0; guard < guard_limit; ++guard) {
    if (ex.state() == vm::RunState::kBlockedSend) {
      ex.CompleteSend();
      ex.Run();
    } else if (ex.state() == vm::RunState::kBlockedRecv) {
      if (idx == trace.recvs.size()) {
        break;
      }
      ex.CompleteRecv(trace.recvs[idx++]);
      ex.Run();
    } else {
      break;
    }
  }
  return ex.steps();
}

bool RunDispatchSection(bench::JsonReport* json, bool quick) {
  bench::PrintHeader(
      "Dispatch replay: 24AA512 software modules re-executed per VM tier\n"
      "(recorded message diet; per-tier retired-instruction totals must match)");

  // Record: a full-software (Electrical split) polling driver runs all four
  // layers in the VM; the observer logs every message each process consumes,
  // internal rendezvous and host deliveries alike.
  driver::HybridConfig config;
  config.split = driver::SplitPoint::kElectrical;
  config.capture_waveform = true;
  driver::HybridDriver recorder(config);
  vm::System& sys = recorder.software_system();
  std::vector<ModuleTrace> traces(sys.process_count());
  for (int p = 0; p < sys.process_count(); ++p) {
    traces[p].module = &sys.executor(p).module();
    traces[p].name = sys.process_name(p);
  }
  sys.SetTransferObserver(
      [&traces](vm::PortRef, vm::PortRef receiver, std::span<const int32_t> message) {
        if (receiver.process < 0) {
          return;  // Host-side TakeMessage; no process consumed anything.
        }
        traces[receiver.process].recvs.emplace_back(message.begin(), message.end());
      });
  driver::DriverMetrics recorded = recorder.MeasureReads(quick ? 2 : 4, 14);
  sys.SetTransferObserver(nullptr);
  if (!recorded.functional) {
    std::printf("recording driver not functional (%s); skipping section\n",
                recorded.note.c_str());
    return false;
  }
  size_t recorded_messages = 0;
  for (const ModuleTrace& trace : traces) {
    recorded_messages += trace.recvs.size();
  }
  std::printf("recorded %zu messages across %d modules\n\n", recorded_messages,
              sys.process_count());

  bench::Table table({10, 14, 12, 14, 10});
  table.Row({"Tier", "instr", "host ms", "Minstr/s", "x interp"});
  bench::PrintRule();

  const int reps = quick ? 10 : 50;
  bool ok = true;
  uint64_t reference_pass_steps = 0;
  double interp_throughput = 0;
  for (vm::ExecMode mode : {vm::ExecMode::kInterp, vm::ExecMode::kCompiled}) {
    std::vector<std::unique_ptr<vm::IrExecutor>> executors;
    if (mode == vm::ExecMode::kCompiled) {
      std::vector<const ir::Module*> modules;
      modules.reserve(traces.size());
      for (const ModuleTrace& trace : traces) {
        modules.push_back(trace.module);
      }
      vm::CompiledModule::Precompile(modules);
    }
    for (const ModuleTrace& trace : traces) {
      auto ex = std::make_unique<vm::IrExecutor>(trace.module);
      ex->set_exec_mode(mode);
      executors.push_back(std::move(ex));
    }
    // Untimed warm-up pass: builds/loads the tier artifact and faults in the
    // traces; also yields the per-pass step total for the equivalence check.
    uint64_t pass_steps = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
      pass_steps += ReplayTrace(*executors[i], traces[i]);
    }
    if (mode == vm::ExecMode::kInterp) {
      reference_pass_steps = pass_steps;
    } else if (pass_steps != reference_pass_steps) {
      std::printf("%s: retired %llu instructions vs interp's %llu — tiers diverge!\n",
                  vm::ExecModeName(mode), static_cast<unsigned long long>(pass_steps),
                  static_cast<unsigned long long>(reference_pass_steps));
      ok = false;
    }
    // Best-of-3 whole-loop timing.
    double best_seconds = 0;
    uint64_t total_steps = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      uint64_t steps = 0;
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        for (size_t i = 0; i < traces.size(); ++i) {
          steps += ReplayTrace(*executors[i], traces[i]);
        }
      }
      const auto stop = std::chrono::steady_clock::now();
      const double seconds = std::chrono::duration<double>(stop - start).count();
      if (attempt == 0 || seconds < best_seconds) {
        best_seconds = seconds;
        total_steps = steps;
      }
    }
    const double throughput =
        best_seconds > 0 ? static_cast<double>(total_steps) / best_seconds : 0;
    if (mode == vm::ExecMode::kInterp) {
      interp_throughput = throughput;
    }
    const double speedup = interp_throughput > 0 ? throughput / interp_throughput : 0;
    table.Row({vm::ExecModeName(mode), std::to_string(total_steps),
               bench::Fmt(best_seconds * 1e3, 3), bench::Fmt(throughput / 1e6, 2),
               bench::Fmt(speedup, 2)});
    if (json != nullptr) {
      json->AddRow()
          .Set("section", "dispatch_24aa512")
          .Set("exec_mode", vm::ExecModeName(mode))
          .Set("instructions_retired", total_steps)
          .Set("host_seconds", best_seconds)
          .Set("instr_per_second", throughput)
          .Set("speedup_vs_interp", speedup);
    }
  }
  std::printf(
      "\nSame retired-instruction stream per tier (checked); the ratio is pure\n"
      "dispatch cost, free of the driver loop's per-pump timer/scheduler tax.\n");
  return ok;
}

}  // namespace
}  // namespace efeu

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  efeu::bench::JsonReport json("fig10_speed_cpu");
  efeu::bench::JsonReport* report = json_path.empty() ? nullptr : &json;
  if (!quick) {
    efeu::RunFigure10(report);
  }
  bool ok = efeu::RunExecModeAblation(report, quick);
  ok = efeu::RunDispatchSection(report, quick) && ok;
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return ok ? 0 : 1;
}
