#include "src/sim/fleet.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/driver/mfd.h"
#include "src/driver/resources.h"
#include "src/i2c/stack.h"
#include "src/support/diagnostics.h"

namespace efeu::sim {

const char* StackClassName(StackClass stack_class) {
  switch (stack_class) {
    case StackClass::kEeprom:
      return "eeprom";
    case StackClass::kMuxed:
      return "muxed";
    case StackClass::kMultiMaster:
      return "multimaster";
    case StackClass::kMfd:
      return "mfd";
  }
  return "?";
}

StackConfig MakeSoakStack(int index, uint64_t base_seed) {
  StackConfig config;
  config.stack_class = static_cast<StackClass>(index % kNumStackClasses);
  // Alternate wait modes across consecutive stacks of the same class.
  config.interrupt_driven = (index / kNumStackClasses) % 2 == 1;
  config.seed = base_seed + static_cast<uint64_t>(index);
  return config;
}

driver::HybridConfig Fleet::BuildStackHybridConfig(
    const StackConfig& config,
    std::shared_ptr<const ir::Compilation> compilation) {
  driver::HybridConfig hybrid;
  // The seed-matrix soak configuration (tests/test_supervision.cc): byte
  // split, short hardware-wait deadline so stalled-handshake faults fail in
  // simulated microseconds, full recovery ladder.
  hybrid.split = driver::SplitPoint::kByte;
  hybrid.interrupt_driven = config.interrupt_driven;
  hybrid.eeprom.write_cycle_ns = 50000;
  // Fleet stacks touch a few dozen bytes; a 4 KiB array instead of the full
  // 64 KiB keeps 4096 resident stacks cheap.
  hybrid.eeprom.memory_bytes = 4096;
  hybrid.recovery.enabled = true;
  hybrid.recovery.wait_timeout_ns = 2e6;
  hybrid.recovery.op_deadline_ns = 1e7;
  // Fleet soaks run monitored.
  hybrid.enable_monitors = true;
  hybrid.shared_compilation = std::move(compilation);

  // Random wire+boundary plan at the soak defaults. The topology classes
  // override it below where a scripted schedule is needed: a random plan at
  // soak rates essentially never fires at the handful of mux-select or START
  // opportunities, so most topology stacks run a scripted topology fault to
  // actually exercise their recovery rung.
  hybrid.fault_plan = FaultPlan::Random(config.seed, config.fault_rate, config.max_faults);
  hybrid.fault_plan.set_boundary_faults(true);

  switch (config.stack_class) {
    case StackClass::kEeprom:
      break;
    case StackClass::kMuxed:
      hybrid.mux_topology.enabled = true;
      hybrid.mux_topology.mux.channels = 4;
      hybrid.mux_topology.device_channel = static_cast<int>(config.seed % 4);
      switch (config.seed % 3) {
        case 0:
          // Select acked, latch frozen for two selects: heals inside
          // EnsureMuxSelected via read-back-driven re-selects.
          hybrid.fault_plan =
              FaultPlan::Scripted({{FaultKind::kMuxStuck, 0, 2}});
          break;
        case 1:
          // Latch takes the mask but routes the wrong channel: surfaces as
          // device NACKs, heals via the supervisor reset + re-select.
          hybrid.fault_plan =
              FaultPlan::Scripted({{FaultKind::kMuxMisroute, 0, 1}});
          break;
        default:
          break;  // keep the random wire plan
      }
      break;
    case StackClass::kMultiMaster:
      hybrid.enable_second_master = true;
      // seed % 3, not % 2: same-class stacks get seeds 4 apart, so a parity
      // test would make the whole class scripted-or-not by the base seed.
      if (config.seed % 3 == 0) {
        // The competing master seizes the bus at the first START; the stack
        // wedges its hardware wait and heals via the WaitBusFree rung.
        hybrid.fault_plan =
            FaultPlan::Scripted({{FaultKind::kArbitrationLoss, 0, 1}});
      }
      break;
    case StackClass::kMfd:
      hybrid.mfd_devices.push_back(MfdConfig{});
      break;
  }
  return hybrid;
}

namespace {

using FleetSupervisor = driver::Supervisor<driver::HybridDriver>;

// One isolated supervised stack: its driver, supervisor and, on MFD stacks,
// the IRQ-chip client. Run() issues the workload's operations one after
// another until the last one completes or one fails terminally.
class StackContext {
 public:
  StackContext(int id, const StackConfig& config,
               std::shared_ptr<const ir::Compilation> compilation)
      : config_(config) {
    report_.id = id;
    report_.stack_class = config.stack_class;
    report_.seed = config.seed;
    report_.interrupt_driven = config.interrupt_driven;
    driver_ = std::make_unique<driver::HybridDriver>(
        Fleet::BuildStackHybridConfig(config, std::move(compilation)));
    supervisor_ = std::make_unique<FleetSupervisor>(driver_.get());
    if (config.stack_class == StackClass::kMfd) {
      mfd_ = std::make_unique<driver::MfdClient<FleetSupervisor>>(
          supervisor_.get(), MfdConfig{}.address);
      // DispatchIrqs fans out only to cells with a handler; the client
      // counts the dispatched IRQs itself.
      mfd_->SetCellHandler(0, [](uint16_t) {});
      gpio_pattern_ = static_cast<uint16_t>(0xA500 | (config.seed & 0xFF));
    }
  }

  StackReport Run() {
    const int eeprom_ops = config_.rounds * 2;
    const int total_ops = eeprom_ops + (mfd_ != nullptr ? kMfdExtraOps : 0);
    for (int op = 0; op < total_ops; ++op) {
      ++report_.ops_attempted;
      const std::string step =
          op < eeprom_ops ? RunEepromOp(op) : RunMfdOp(op - eeprom_ops);
      if (!step.empty()) {
        Fail(op, step);
        return report_;
      }
      ++report_.ops_completed;
    }
    Finish();
    return report_;
  }

 private:
  static constexpr int kMfdExtraOps = 5;

  // One write or read+verify round trip on the supervised EEPROM path (the
  // seed-matrix soak workload, verbatim).
  std::string RunEepromOp(int op) {
    const int offset = 0x0400 + 8 * (op / 2);
    if (op % 2 == 0) {
      return supervisor_->Write(offset, kPayload) ? "" : "write";
    }
    std::vector<uint8_t> data;
    if (!supervisor_->Read(offset, static_cast<int>(kPayload.size()), &data)) {
      return "read";
    }
    if (data != kPayload && !SamplingFaultInjected()) {
      return "data mismatch";
    }
    return "";
  }

  // The MFD tail: probe the ID register, arm the IRQ chip, drive the GPIO
  // cell and dispatch the resulting edge IRQ through the client's top half.
  std::string RunMfdOp(int op) {
    switch (op) {
      case 0: {
        uint16_t id = 0;
        if (!mfd_->ReadReg(kMfdRegId, &id)) {
          return "mfd id read";
        }
        if ((id & 0xFF00) != 0xEF00 && !SamplingFaultInjected()) {
          return "mfd id mismatch";
        }
        return "";
      }
      case 1:
        return mfd_->EnableIrqs(0xFFFF) ? "" : "mfd irq enable";
      case 2:
        return mfd_->WriteReg(kMfdCellStride, gpio_pattern_) ? "" : "mfd gpio write";
      case 3: {
        uint16_t in = 0;
        if (!mfd_->ReadReg(kMfdCellStride + 1, &in)) {
          return "mfd gpio readback";
        }
        if (in != gpio_pattern_ && !SamplingFaultInjected()) {
          return "mfd gpio mismatch";
        }
        return "";
      }
      case 4:
        return mfd_->DispatchIrqs() >= 0 ? "" : "mfd irq dispatch";
    }
    return "";
  }

  // Line-sampling faults corrupt individual bits on the wire, which plain
  // I2C cannot detect; data-integrity assertions are skipped for those
  // schedules (completion is still required), matching the seed-matrix soak.
  bool SamplingFaultInjected() const {
    for (const FaultRecord& record : driver_->fault_plan().trace()) {
      if (record.kind == FaultKind::kAckGlitch ||
          record.kind == FaultKind::kSclStuckLow ||
          record.kind == FaultKind::kSdaStuckLow) {
        return true;
      }
    }
    return false;
  }

  void Collect() {
    report_.health = supervisor_->health();
    report_.recovery = supervisor_->counters();
    report_.monitor = driver_->MonitorCounters();
    report_.faults_injected = driver_->fault_plan().faults_injected();
    report_.finished_at_ns = driver_->now_ns();
    report_.rtl_cycles = driver_->rtl_cycles();
    report_.rtl_cycles_ticked = driver_->rtl_cycles_ticked();
  }

  std::string Describe() const {
    return "stack " + std::to_string(report_.id) + " class=" +
           StackClassName(config_.stack_class) + " seed=" +
           std::to_string(config_.seed) +
           (config_.interrupt_driven ? " (interrupt)" : " (polling)");
  }

  void Fail(int op, const std::string& step) {
    report_.completed = false;
    Collect();
    report_.failure =
        Describe() + " op " + std::to_string(op) + " " + step + ": " +
        driver_->fault_plan().Describe() +
        "\nreplay: " + driver_->fault_plan().ReplayCommand() + "\n" +
        driver::FormatRecoveryCounters(report_.recovery) + "\n" +
        monitor::FormatTripCounters(report_.monitor);
  }

  void Finish() {
    Collect();
    if (report_.health == driver::HealthState::kWedged) {
      report_.completed = false;
      report_.failure = Describe() + " wedged: " +
                        driver_->fault_plan().Describe() +
                        "\nreplay: " + driver_->fault_plan().ReplayCommand() +
                        "\n" + driver::FormatRecoveryCounters(report_.recovery);
    } else {
      report_.completed = true;
    }
  }

  static const std::vector<uint8_t> kPayload;

  StackConfig config_;
  StackReport report_;
  std::unique_ptr<driver::HybridDriver> driver_;
  std::unique_ptr<FleetSupervisor> supervisor_;
  std::unique_ptr<driver::MfdClient<FleetSupervisor>> mfd_;
  uint16_t gpio_pattern_ = 0;
};

const std::vector<uint8_t> StackContext::kPayload = {0x10, 0x32, 0x54, 0x76};

void MergeStackReport(const StackReport& stack, FleetReport* fleet) {
  ++fleet->class_counts[static_cast<int>(stack.stack_class)];
  switch (stack.health) {
    case driver::HealthState::kWedged:
      ++fleet->wedged;
      break;
    case driver::HealthState::kDegraded:
      ++fleet->degraded;
      break;
    default:
      ++fleet->healthy;
      break;
  }
  fleet->ops_completed += stack.ops_completed;
  fleet->events_processed += stack.ops_attempted;
  fleet->faults_injected += stack.faults_injected;

  const driver::RecoveryCounters& r = stack.recovery;
  driver::RecoveryCounters& sum = fleet->recovery;
  sum.attempts += r.attempts;
  sum.retries += r.retries;
  sum.nacks += r.nacks;
  sum.failures += r.failures;
  sum.timeouts += r.timeouts;
  sum.bus_recoveries += r.bus_recoveries;
  sum.deadline_hits += r.deadline_hits;
  sum.backoff_ns += r.backoff_ns;
  sum.soft_resets += r.soft_resets;
  sum.reprobes += r.reprobes;
  sum.degraded_entries += r.degraded_entries;
  sum.arbitration_waits += r.arbitration_waits;
  sum.mux_selects += r.mux_selects;
  fleet->monitor.Merge(stack.monitor);

  ++fleet->soft_reset_hist[HistogramBucket(r.soft_resets)];
  ++fleet->degraded_hist[HistogramBucket(r.degraded_entries)];
  ++fleet->trip_hist[HistogramBucket(stack.monitor.total)];

  if (!stack.failure.empty()) {
    fleet->failures.push_back(stack.failure);
  }
  // Strict > keeps the lowest id on ties (stacks merge in id order).
  if (fleet->worst.id < 0 || r.soft_resets > fleet->worst.recovery.soft_resets) {
    fleet->worst = stack;
  }
  if (stack.finished_at_ns > fleet->makespan_ns) {
    fleet->makespan_ns = stack.finished_at_ns;
  }
  fleet->rtl_cycles += stack.rtl_cycles;
  fleet->rtl_cycles_ticked += stack.rtl_cycles_ticked;
}

std::string FormatHistogram(const uint64_t (&hist)[FleetReport::kNumBuckets]) {
  std::string out = "[";
  for (int bucket = 0; bucket < FleetReport::kNumBuckets; ++bucket) {
    if (bucket > 0) {
      out += ' ';
    }
    out += HistogramBucketLabel(bucket);
    out += ':';
    out += std::to_string(hist[bucket]);
  }
  out += ']';
  return out;
}

}  // namespace

int HistogramBucket(uint64_t count) {
  if (count <= 2) {
    return static_cast<int>(count);
  }
  if (count <= 4) {
    return 3;
  }
  if (count <= 8) {
    return 4;
  }
  return 5;
}

const char* HistogramBucketLabel(int bucket) {
  switch (bucket) {
    case 0:
      return "0";
    case 1:
      return "1";
    case 2:
      return "2";
    case 3:
      return "3-4";
    case 4:
      return "5-8";
    case 5:
      return ">8";
  }
  return "?";
}

std::string FleetReport::CounterSignature() const {
  std::string s = "stacks=" + std::to_string(num_stacks);
  s += " classes=";
  for (int c = 0; c < kNumStackClasses; ++c) {
    if (c > 0) {
      s += '/';
    }
    s += std::to_string(class_counts[c]);
  }
  s += " healthy=" + std::to_string(healthy);
  s += " degraded=" + std::to_string(degraded);
  s += " wedged=" + std::to_string(wedged);
  s += " ops=" + std::to_string(ops_completed);
  s += " faults=" + std::to_string(faults_injected);
  s += " events=" + std::to_string(events_processed);
  char makespan[40];
  std::snprintf(makespan, sizeof(makespan), " makespan_ns=%.1f", makespan_ns);
  s += makespan;
  s += " | " + driver::FormatRecoveryCounters(recovery);
  s += " | trips=" + std::to_string(monitor.total);
  s += " resets=" + FormatHistogram(soft_reset_hist);
  s += " degr=" + FormatHistogram(degraded_hist);
  s += " trips_hist=" + FormatHistogram(trip_hist);
  s += " worst=" + std::to_string(worst.id) + ":" +
       std::to_string(worst.recovery.soft_resets);
  s += " failures=" + std::to_string(failures.size());
  return s;
}

std::string FleetReport::Format() const {
  char line[160];
  std::string out = "fleet: " + std::to_string(num_stacks) + " stacks (";
  for (int c = 0; c < kNumStackClasses; ++c) {
    if (c > 0) {
      out += " / ";
    }
    out += std::to_string(class_counts[c]);
    out += ' ';
    out += StackClassName(static_cast<StackClass>(c));
  }
  out += "), " + std::to_string(num_threads) + " thread(s)\n";
  out += "health: " + std::to_string(healthy) + " healthy, " +
         std::to_string(degraded) + " degraded, " + std::to_string(wedged) +
         " wedged\n";
  std::snprintf(line, sizeof(line),
                "ops=%llu events=%llu faults=%llu makespan=%.3f ms host=%.2f s "
                "(%.1f stacks/s)\n",
                static_cast<unsigned long long>(ops_completed),
                static_cast<unsigned long long>(events_processed),
                static_cast<unsigned long long>(faults_injected),
                makespan_ns / 1e6, host_seconds, stacks_per_second);
  out += line;
  std::snprintf(line, sizeof(line),
                "rtl: %llu cycles, %llu ticked (%.1f%%), the rest skipped idle\n",
                static_cast<unsigned long long>(rtl_cycles),
                static_cast<unsigned long long>(rtl_cycles_ticked),
                rtl_cycles > 0 ? 100.0 * static_cast<double>(rtl_cycles_ticked) /
                                     static_cast<double>(rtl_cycles)
                               : 0.0);
  out += line;
  out += "recovery: " + driver::FormatRecoveryCounters(recovery) + "\n";
  out += "monitors: " + monitor::FormatTripCounters(monitor) + "\n";
  out += "soft_resets " + FormatHistogram(soft_reset_hist) + " degraded " +
         FormatHistogram(degraded_hist) + " trips " + FormatHistogram(trip_hist) +
         "\n";
  if (worst.id >= 0) {
    out += "worst: stack " + std::to_string(worst.id) + " (" +
           StackClassName(worst.stack_class) + ", seed " +
           std::to_string(worst.seed) +
           (worst.interrupt_driven ? ", interrupt" : ", polling") + ") " +
           driver::FormatRecoveryCounters(worst.recovery) + "\n";
  }
  for (const std::string& failure : failures) {
    out += "FAILURE: " + failure + "\n---\n";
  }
  return out;
}

Fleet::Fleet(FleetOptions options) : options_(options) {}

Fleet::~Fleet() = default;

int Fleet::AddStack(const StackConfig& config) {
  configs_.push_back(config);
  return static_cast<int>(configs_.size()) - 1;
}

StackReport RunStackStandalone(int id, const StackConfig& config,
                               std::shared_ptr<const ir::Compilation> compilation) {
  return StackContext(id, config, std::move(compilation)).Run();
}

FleetReport Fleet::Run() {
  assert(!ran_ && "a Fleet runs once");
  ran_ = true;
  const int n = num_stacks();
  FleetReport report;
  report.num_stacks = n;
  report.worst.id = -1;
  int threads = options_.num_threads < 1 ? 1 : options_.num_threads;
  if (n > 0 && threads > n) {
    threads = n;
  }
  report.num_threads = threads;
  if (n == 0) {
    return report;
  }
  if (compilation_ == nullptr) {
    // One compiled controller stack, shared read-only by every driver.
    DiagnosticEngine diag;
    compilation_ = i2c::CompileControllerStack(diag);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<StackReport> reports(static_cast<size_t>(n));
  // Shard s owns stacks s, s+threads, s+2*threads, ... and runs them one
  // after another, so at most one stack per thread is alive. Stacks are
  // isolated, so neither the shard nor the order inside it can change a
  // per-stack result; only the merge order below matters, and that is always
  // stack-id order.
  auto run_shard = [&](int shard) {
    for (int id = shard; id < n; id += threads) {
      reports[static_cast<size_t>(id)] =
          RunStackStandalone(id, configs_[static_cast<size_t>(id)], compilation_);
    }
  };

  if (threads == 1) {
    run_shard(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int shard = 0; shard < threads; ++shard) {
      workers.emplace_back(run_shard, shard);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }

  for (const StackReport& stack : reports) {
    MergeStackReport(stack, &report);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  report.host_seconds = elapsed.count();
  report.stacks_per_second =
      report.host_seconds > 0 ? n / report.host_seconds : 0;
  return report;
}

}  // namespace efeu::sim
