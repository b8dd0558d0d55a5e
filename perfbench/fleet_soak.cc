// fleet_soak: sim::Fleet soaking the standard mixed population
// (MakeSoakStack: 4 topology classes x polling/interrupt, Byte split, seeded
// random plus scripted wire/boundary/topology faults, monitors on, full
// supervision ladder) on `threads` workers. Closed loop: every stack issues
// its next supervised operation only after the previous one completed.
//
// The untraced run times whole Fleet::Run passes (stacks/s). The traced run
// replays the same stacks through the same public surface
// (Supervisor + MfdClient over Fleet::BuildStackHybridConfig), alternately
// bare, with a clock around each supervised call (the per-operation latency
// the fleet does not expose, and the overhead baseline), and through
// TimedDriver, where it must reproduce RunStackStandalone's per-stack
// counters exactly.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "src/driver/hybrid.h"
#include "src/driver/mfd.h"
#include "src/driver/resources.h"
#include "src/driver/supervisor.h"
#include "src/i2c/stack.h"
#include "src/sim/fleet.h"

namespace perfbench {
namespace {

using efeu::driver::HybridDriver;
using efeu::sim::StackClass;
using efeu::sim::StackConfig;
using efeu::sim::StackReport;

// Fleet size per pass: large enough that the seeded fault mix averages out
// across seeds, small enough for several passes per run.
constexpr int kStacks = 48;

// CounterSignature() of the kStacks-stack fleet at the default seed.
constexpr const char* kPinnedSignature =
    "stacks=48 classes=12/12/12/12 healthy=47 degraded=1 wedged=0 ops=348 faults=156 events=348 makespan_ns=26116418.0 | "
    "attempts=680 retries=211 nacks=208 failures=7 timeouts=48 bus_recoveries=51 deadline_hits=0 backoff_us=35000.0 soft_resets=73 reprobes=8 degraded=1 arb_waits=4 mux_selects=28 | "
    "trips=85 resets=[0:4 1:32 2:5 3-4:4 5-8:3 >8:0] degr=[0:47 1:1 2:0 3-4:0 5-8:0 >8:0] trips_hist=[0:8 1:28 2:0 3-4:4 5-8:8 >8:0] worst=36:8 failures=0";

constexpr double kClockNs = 10.0;  // modeled 100 MHz RTL clock

// Layer accumulators of one replay pass (per worker, merged after join).
struct ReplayTotals {
  std::vector<double> op_ms;
  double op_host_s = 0;
  double vm_s = 0;
  double cycles = 0;
  uint64_t insts = 0;
  uint64_t irqs = 0;
  uint64_t mmio_bursts = 0;
  double class_host_s[efeu::sim::kNumStackClasses] = {};
  double class_vm_s[efeu::sim::kNumStackClasses] = {};
  double class_cycles[efeu::sim::kNumStackClasses] = {};
  std::map<std::string, double> span_self_s;
  uint64_t spans = 0;

  void Merge(const ReplayTotals& other) {
    op_ms.insert(op_ms.end(), other.op_ms.begin(), other.op_ms.end());
    op_host_s += other.op_host_s;
    vm_s += other.vm_s;
    cycles += other.cycles;
    insts += other.insts;
    irqs += other.irqs;
    mmio_bursts += other.mmio_bursts;
    for (int c = 0; c < efeu::sim::kNumStackClasses; ++c) {
      class_host_s[c] += other.class_host_s[c];
      class_vm_s[c] += other.class_vm_s[c];
      class_cycles[c] += other.class_cycles[c];
    }
    for (const auto& [name, seconds] : other.span_self_s) {
      span_self_s[name] += seconds;
    }
    spans += other.spans;
  }
};

// One fleet stack's workload, op for op as the fleet runs it: `rounds`
// write + read-verify round trips on the supervised EEPROM path, then the
// MFD tail (ID probe, IRQ enable, GPIO write, read-back, IRQ dispatch) on
// MFD stacks. Traced replays put TimedDriver between supervisor and driver.
template <bool kTraced>
class StackReplay {
 public:
  using Facade = std::conditional_t<kTraced, TimedDriver<HybridDriver>, HybridDriver>;
  using Sup = efeu::driver::Supervisor<Facade>;

  StackReplay(int id, const StackConfig& config,
              std::shared_ptr<const efeu::ir::Compilation> compilation, Tracer* tracer)
      : config_(config), tracer_(tracer) {
    report_.id = id;
    report_.stack_class = config.stack_class;
    report_.seed = config.seed;
    report_.interrupt_driven = config.interrupt_driven;
    driver_ = std::make_unique<HybridDriver>(
        efeu::sim::Fleet::BuildStackHybridConfig(config, std::move(compilation)));
    Facade* facade = nullptr;
    if constexpr (kTraced) {
      timed_ = std::make_unique<TimedDriver<HybridDriver>>(driver_.get(), tracer);
      facade = timed_.get();
    } else {
      facade = driver_.get();
    }
    supervisor_ = std::make_unique<Sup>(facade);
    if (config.stack_class == StackClass::kMfd) {
      mfd_ = std::make_unique<efeu::driver::MfdClient<Sup>>(supervisor_.get(),
                                                            efeu::sim::MfdConfig{}.address);
      mfd_->SetCellHandler(0, [](uint16_t) {});
      gpio_pattern_ = static_cast<uint16_t>(0xA500 | (config.seed & 0xFF));
    }
  }

  StackReport Run(ReplayTotals* totals) {
    const int eeprom_ops = config_.rounds * 2;
    const int total_ops = eeprom_ops + (mfd_ != nullptr ? 5 : 0);
    const int cls = static_cast<int>(config_.stack_class);
    bool ok = true;
    for (int op = 0; op < total_ops && ok; ++op) {
      const double vm0 = driver_->vm_host_seconds();
      const double t0_ns = driver_->now_ns();
      const uint64_t insts0 = driver_->instructions_retired();
      const uint64_t irqs0 = driver_->irq_count();
      const uint64_t bursts0 = driver_->mmio_bursts();
      const double start = Now();
      if constexpr (kTraced) {
        ScopedSpan span(tracer_, "supervisor");
        ok = op < eeprom_ops ? EepromOp(op) : MfdOp(op - eeprom_ops);
      } else {
        ok = op < eeprom_ops ? EepromOp(op) : MfdOp(op - eeprom_ops);
      }
      const double host_s = Now() - start;
      totals->op_ms.push_back(host_s * 1e3);
      if constexpr (kTraced) {
        const double vm_s = driver_->vm_host_seconds() - vm0;
        const double cycles = (driver_->now_ns() - t0_ns) / kClockNs;
        totals->op_host_s += host_s;
        totals->vm_s += vm_s;
        totals->cycles += cycles;
        totals->insts += driver_->instructions_retired() - insts0;
        totals->irqs += driver_->irq_count() - irqs0;
        totals->mmio_bursts += driver_->mmio_bursts() - bursts0;
        totals->class_host_s[cls] += host_s;
        totals->class_vm_s[cls] += vm_s;
        totals->class_cycles[cls] += cycles;
      }
      if (ok) {
        ++report_.ops_completed;
      }
    }
    report_.health = supervisor_->health();
    report_.recovery = supervisor_->counters();
    report_.monitor = driver_->MonitorCounters();
    report_.faults_injected = driver_->fault_plan().faults_injected();
    report_.finished_at_ns = driver_->now_ns();
    report_.completed = ok && report_.health != efeu::driver::HealthState::kWedged;
    return report_;
  }

 private:
  bool EepromOp(int op) {
    static const std::vector<uint8_t> kPayload = {0x10, 0x32, 0x54, 0x76};
    const int offset = 0x0400 + 8 * (op / 2);
    if (op % 2 == 0) {
      return supervisor_->Write(offset, kPayload);
    }
    std::vector<uint8_t> data;
    if (!supervisor_->Read(offset, static_cast<int>(kPayload.size()), &data)) {
      return false;
    }
    return data == kPayload || SamplingFaultInjected();
  }

  bool MfdOp(int op) {
    uint16_t value = 0;
    switch (op) {
      case 0:
        return mfd_->ReadReg(efeu::sim::kMfdRegId, &value) &&
               ((value & 0xFF00) == 0xEF00 || SamplingFaultInjected());
      case 1:
        return mfd_->EnableIrqs(0xFFFF);
      case 2:
        return mfd_->WriteReg(efeu::sim::kMfdCellStride, gpio_pattern_);
      case 3:
        return mfd_->ReadReg(efeu::sim::kMfdCellStride + 1, &value) &&
               (value == gpio_pattern_ || SamplingFaultInjected());
      default:
        return mfd_->DispatchIrqs() >= 0;
    }
  }

  // Line-sampling faults corrupt bits plain I2C cannot detect; the fleet
  // skips data assertions on those schedules, and so does the replay.
  bool SamplingFaultInjected() const {
    for (const efeu::sim::FaultRecord& record : driver_->fault_plan().trace()) {
      if (record.kind == efeu::sim::FaultKind::kAckGlitch ||
          record.kind == efeu::sim::FaultKind::kSclStuckLow ||
          record.kind == efeu::sim::FaultKind::kSdaStuckLow) {
        return true;
      }
    }
    return false;
  }

  StackConfig config_;
  Tracer* tracer_;
  StackReport report_;
  std::unique_ptr<HybridDriver> driver_;
  std::unique_ptr<TimedDriver<HybridDriver>> timed_;
  std::unique_ptr<Sup> supervisor_;
  std::unique_ptr<efeu::driver::MfdClient<Sup>> mfd_;
  uint16_t gpio_pattern_ = 0;
};

// Everything a stack report pins except host time and the failure text.
std::string StackDigest(const StackReport& r) {
  std::string s = std::to_string(r.id) + (r.completed ? " ok " : " FAILED ") +
                  efeu::driver::HealthStateName(r.health) + " ops=" +
                  std::to_string(r.ops_completed) + " faults=" +
                  std::to_string(r.faults_injected) + " trips=" + std::to_string(r.monitor.total);
  for (uint64_t count : r.monitor.by_kind) {
    s += "/" + std::to_string(count);
  }
  char at[48];
  std::snprintf(at, sizeof(at), " at=%.1f ", r.finished_at_ns);
  return s + at + efeu::driver::FormatRecoveryCounters(r.recovery);
}

// Runs fn(shard) for every shard in [0, threads), shard 0 on the calling
// thread, and joins the rest.
template <typename Fn>
void OnShards(int threads, const Fn& fn) {
  std::vector<std::thread> workers;
  for (int shard = 1; shard < threads; ++shard) {
    workers.emplace_back(fn, shard);
  }
  fn(0);
  for (std::thread& worker : workers) {
    worker.join();
  }
}

// Runs every stack of `configs` on `threads` workers (stack i on worker
// i % threads, like the fleet's shards); returns reports in stack-id order.
template <bool kTraced>
std::vector<StackReport> ReplayPass(const std::vector<StackConfig>& configs,
                                    const std::shared_ptr<const efeu::ir::Compilation>& comp,
                                    int threads, ReplayTotals* totals) {
  std::vector<StackReport> reports(configs.size());
  std::vector<ReplayTotals> shard_totals(static_cast<size_t>(threads));
  auto run_shard = [&](int shard) {
    Tracer tracer;
    ReplayTotals& mine = shard_totals[static_cast<size_t>(shard)];
    for (size_t id = static_cast<size_t>(shard); id < configs.size();
         id += static_cast<size_t>(threads)) {
      StackReplay<kTraced> replay(static_cast<int>(id), configs[id], comp, &tracer);
      reports[id] = replay.Run(&mine);
    }
    if constexpr (kTraced) {
      tracer.AddSelfSeconds(&mine.span_self_s);
      mine.spans += tracer.spans().size();
    }
  };
  OnShards(threads, run_shard);
  for (const ReplayTotals& shard : shard_totals) {
    totals->Merge(shard);
  }
  return reports;
}

efeu::sim::FleetReport FleetPass(const std::vector<StackConfig>& configs, int threads) {
  efeu::sim::FleetOptions options;
  options.num_threads = threads;
  efeu::sim::Fleet fleet(options);
  for (const StackConfig& config : configs) {
    fleet.AddStack(config);
  }
  return fleet.Run();
}

// One fault-free supervised write + read on stack 0's topology: warms the
// allocator and code paths the same way on every seed.
void WarmUp(const std::shared_ptr<const efeu::ir::Compilation>& compilation) {
  efeu::driver::HybridConfig config = efeu::sim::Fleet::BuildStackHybridConfig(
      efeu::sim::MakeSoakStack(0, kDefaultSeed), compilation);
  config.fault_plan = efeu::sim::FaultPlan();
  HybridDriver driver(config);
  efeu::driver::Supervisor<HybridDriver> supervisor(&driver);
  std::vector<uint8_t> data;
  supervisor.Write(0x0400, {0x10, 0x32, 0x54, 0x76});
  supervisor.Read(0x0400, 4, &data);
}

}  // namespace

Outcome RunFleetSoak(const RunContext& context) {
  Outcome out;
  std::shared_ptr<const efeu::ir::Compilation> compilation;
  std::vector<StackConfig> configs;
  std::vector<double> compile_s;
  out.setup_s = MedianSetup(5, [&] {
    const double t0 = Now();
    efeu::DiagnosticEngine diag;
    compilation = efeu::i2c::CompileControllerStack(diag);
    compile_s.push_back(Now() - t0);
    configs.clear();
    for (int i = 0; i < kStacks; ++i) {
      configs.push_back(efeu::sim::MakeSoakStack(i, context.seed));
    }
    WarmUp(compilation);
  });
  out.Check(compilation != nullptr, "controller stack failed to compile");
  if (compilation == nullptr) {
    return out;
  }

  if (!context.trace) {
    std::string signature;
    const double loop_start = Now();
    for (int pass = 0; pass < kMinPasses || Now() - loop_start < context.seconds; ++pass) {
      const double t0 = Now();
      const efeu::sim::FleetReport report = FleetPass(configs, context.threads);
      out.AddPass(Now() - t0, context.threads);
      out.attempted += report.ops_completed + report.failures.size();
      out.failed += report.failures.size();
      out.Check(report.wedged == 0, "fleet pass ended with wedged stacks");
      if (signature.empty()) {
        signature = report.CounterSignature();
      }
      out.Check(report.CounterSignature() == signature, "fleet signature drifted between passes");
    }
    // Determinism across thread counts holds on every seed; the exact
    // signature is pinned for the default seed only.
    if (context.threads > 1) {
      const efeu::sim::FleetReport single = FleetPass(configs, 1);
      out.Check(single.CounterSignature() == signature,
                "fleet signature differs between 1 and " + std::to_string(context.threads) +
                    " threads");
    }
    if (context.default_seed()) {
      out.Check(signature == kPinnedSignature, "fleet signature differs from the pinned value");
    }
    out.notes.push_back("fleet: " + std::to_string(kStacks) + " stacks/pass, " +
                        std::to_string(context.threads) + " thread(s)");
    out.notes.push_back("signature: " + signature);
    char line[64];
    std::snprintf(line, sizeof(line), "stacks_per_s %.2f 1/s", kStacks / Median(out.pass_seconds));
    out.notes.push_back(line);
    return out;
  }

  // Traced run: an untraced replay (the per-operation latency sample and the
  // overhead baseline) and a traced replay per iteration.
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<std::map<std::string, double>> layer_passes;
  const double loop_start = Now();
  for (int pass = 0; pass < kMinPasses || Now() - loop_start < context.seconds; ++pass) {
    ReplayTotals plain;
    double t0 = Now();
    for (const StackReport& r : ReplayPass<false>(configs, compilation, context.threads, &plain)) {
      out.failed += r.completed ? 0 : 1;
    }
    untraced_s.push_back(Now() - t0);
    out.op_ms.insert(out.op_ms.end(), plain.op_ms.begin(), plain.op_ms.end());
    out.attempted += plain.op_ms.size();

    ReplayTotals traced;
    t0 = Now();
    std::vector<StackReport> reports =
        ReplayPass<true>(configs, compilation, context.threads, &traced);
    traced_s.push_back(Now() - t0);
    out.attempted += traced.op_ms.size();

    // Counters of one pass are deterministic; host times are medians.
    uint64_t ops = 0;
    efeu::driver::RecoveryCounters sum;
    uint64_t faults = 0;
    uint64_t trips = 0;
    for (const StackReport& r : reports) {
      out.failed += r.completed ? 0 : 1;
      ops += r.ops_completed;
      faults += r.faults_injected;
      trips += r.monitor.total;
      sum.attempts += r.recovery.attempts;
      sum.retries += r.recovery.retries;
      sum.soft_resets += r.recovery.soft_resets;
      sum.reprobes += r.recovery.reprobes;
      sum.degraded_entries += r.recovery.degraded_entries;
    }
    std::map<std::string, double> layers;
    for (const auto& [name, seconds] : traced.span_self_s) {
      layers[name == "supervisor_s" ? "supervisor.self_s" : name] = seconds;
    }
    layers["vm.host_s"] = traced.vm_s;
    layers["vm.insts"] = static_cast<double>(traced.insts);
    layers["vm.insts_per_s"] = traced.vm_s > 0 ? traced.insts / traced.vm_s : 0;
    layers["vm.share"] = traced.op_host_s > 0 ? traced.vm_s / traced.op_host_s : 0;
    layers["rtl.cycles"] = traced.cycles;
    layers["rtl.host_ns_per_cycle"] =
        traced.cycles > 0 ? (traced.op_host_s - traced.vm_s) * 1e9 / traced.cycles : 0;
    for (int c = 0; c < efeu::sim::kNumStackClasses; ++c) {
      if (traced.class_cycles[c] > 0) {
        layers[std::string("rtl.host_ns_per_cycle.") +
               efeu::sim::StackClassName(static_cast<StackClass>(c))] =
            (traced.class_host_s[c] - traced.class_vm_s[c]) * 1e9 / traced.class_cycles[c];
      }
    }
    layers["sim.faults_injected"] = static_cast<double>(faults);
    layers["driver.attempts"] = static_cast<double>(sum.attempts);
    layers["driver.retries"] = static_cast<double>(sum.retries);
    layers["driver.useful_share"] = sum.attempts > 0 ? static_cast<double>(ops) / sum.attempts : 0;
    layers["driver.irqs"] = static_cast<double>(traced.irqs);
    layers["driver.mmio_bursts"] = static_cast<double>(traced.mmio_bursts);
    layers["supervisor.soft_resets"] = static_cast<double>(sum.soft_resets);
    layers["supervisor.reprobes"] = static_cast<double>(sum.reprobes);
    layers["supervisor.degraded_entries"] = static_cast<double>(sum.degraded_entries);
    layers["monitor.trips"] = static_cast<double>(trips);
    layers["trace.spans"] = static_cast<double>(traced.spans);
    layer_passes.push_back(std::move(layers));

    if (pass == 0) {
      // The traced work must be the fleet's work: per-stack counters equal
      // RunStackStandalone's for every stack.
      std::vector<StackReport> standalone(configs.size());
      OnShards(context.threads, [&](int shard) {
        for (size_t id = static_cast<size_t>(shard); id < configs.size();
             id += static_cast<size_t>(context.threads)) {
          standalone[id] =
              efeu::sim::RunStackStandalone(static_cast<int>(id), configs[id], compilation);
        }
      });
      for (size_t id = 0; id < configs.size(); ++id) {
        out.Check(StackDigest(reports[id]) == StackDigest(standalone[id]),
                  "traced replay differs from RunStackStandalone: " +
                      StackDigest(reports[id]) + " vs " + StackDigest(standalone[id]));
      }
    }
  }

  out.layers = MedianLayers(layer_passes);
  out.layers["trace.overhead_share"] = Median(traced_s) / Median(untraced_s) - 1;
  // Against the untraced run's pass_s, this shows the fleet's own
  // orchestration cost (event queues, shard merge) end to end.
  char line[64];
  std::snprintf(line, sizeof(line), "replay_pass_s %.4f s", Median(untraced_s));
  out.notes.push_back(line);
  out.layers["ir.compile_s"] = Median(compile_s);
  out.layers["ir.compiles"] = 1;
  double insts = 0;
  for (const efeu::ir::Module& module : compilation->modules()) {
    insts += module.CountInsts();
  }
  out.layers["ir.insts"] = insts;
  return out;
}

}  // namespace perfbench
