// The plumbing the three drivers of the evaluation share (paper section 5
// compares the generated hybrid drivers with the i2c-gpio bit-bang driver and
// the Xilinx AXI IIC IP on one platform cost model): the modeled software
// timeline, the retry/backoff/deadline ladder, the 20-word CWorld ->
// CEepDriver request encoding, the 9-pulse bus recovery, the runtime-monitor
// bookkeeping, the shared part of SoftReset and MeasureReads.
//
// HybridDriver, BitBangDriver and XilinxIpDriver inherit DriverCore and keep
// only their data paths. Where the drivers differ in a modeled output (which
// clock a deadline reads, how a recovery pulse is held, what an attempt or a
// probe runs, which execution counters a measurement reports), the driver
// hands the difference to the core as a callable; none of it is an option.

#ifndef SRC_DRIVER_CORE_H_
#define SRC_DRIVER_CORE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/driver/recovery.h"
#include "src/driver/timing.h"
#include "src/i2c/codes.h"
#include "src/ir/compile.h"
#include "src/monitor/bus_watcher.h"
#include "src/monitor/monitor_spec.h"
#include "src/monitor/shadow_checker.h"
#include "src/rtl/regfile.h"
#include "src/rtl/system.h"
#include "src/sim/eeprom.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/waveform.h"
#include "src/vm/system.h"

namespace efeu::driver {

struct DriverMetrics {
  bool functional = true;
  std::string note;
  sim::FrequencyStats frequency;
  double cpu_usage = 0;  // busy fraction of one core (0..1)
  double elapsed_ns = 0;
  // RTL clock edges actually evaluated during the measurement; the rest of
  // the elapsed_ns / clock_ns edges were skipped as idle. Host cost only:
  // no modeled output depends on it.
  uint64_t rtl_cycles_ticked = 0;
  uint64_t irq_count = 0;
  // Execution-path counters (DESIGN.md "VM: one interpreter").
  uint64_t instructions_retired = 0;  // software-VM IR instructions executed
  uint64_t mmio_bursts = 0;           // word loops replaced by one AXI burst
  uint64_t irqs_coalesced = 0;        // up-messages drained without a new IRQ
  // Host wall-clock spent inside the software VM; the RTL sim and the bus
  // model run outside it.
  // Instruction throughput = instructions_retired / vm_host_seconds.
  double vm_host_seconds = 0;
  // Recovery cost of the whole driver lifetime so far.
  RecoveryCounters recovery;
  uint64_t faults_injected = 0;
  // Runtime-monitor outcome (bus watcher + shadow checker merged); all
  // zeros when monitors are disabled.
  monitor::TripCounters monitor;
};

// One-line execution-path counter summary ("instr_retired=... mmio_bursts=..."
// style, like FormatRecoveryCounters) for bench output and soak reports.
std::string FormatExecCounters(const DriverMetrics& metrics);

// The execution-path counters a driver reports beyond the core's own; only
// the hybrid driver keeps them, so the baselines report zeros.
struct ExecCounters {
  uint64_t instructions_retired = 0;
  uint64_t mmio_bursts = 0;
  uint64_t irqs_coalesced = 0;
  double vm_host_seconds = 0;
};

// Controller layers, top to bottom.
inline constexpr const char* kControllerLayers[] = {"CEepDriver", "CTransaction", "CByte",
                                                     "CSymbol"};

class DriverCore {
 public:
  DriverCore(const DriverCore&) = delete;
  DriverCore& operator=(const DriverCore&) = delete;

  sim::I2cBus& bus() { return bus_; }
  sim::Eeprom24aa512& eeprom() { return *eeprom_; }
  // The live fault plan (the driver's own copy of the configured plan; its
  // trace grows as faults fire).
  sim::FaultPlan& fault_plan() { return fault_plan_; }
  const RecoveryCounters& recovery_counters() const { return recovery_counters_; }
  // CE_RES_* code of the last completed operation attempt.
  int32_t last_status() const { return last_status_; }
  // True once the stack missed a hardware deadline mid-protocol; every
  // further operation fails fast instead of hanging.
  bool wedged() const { return wedged_; }

  // The modeled timeline: software time runs ahead of the RTL clock between
  // syncs. A driver without a software clock (the Xilinx IP) never moves
  // sw_time_ns_, so its time is RTL time.
  double now_ns() const { return std::max(sw_time_ns_, rtl_.time_ns()); }
  double cpu_busy_ns() const { return cpu_busy_ns_; }
  uint64_t irq_count() const { return irq_count_; }
  // Modeled RTL clock edges so far, and how many of them were evaluated
  // rather than skipped as idle (rtl::RtlSystem::cycles_ticked).
  uint64_t rtl_cycles() const { return rtl_.cycles(); }
  uint64_t rtl_cycles_ticked() const { return rtl_.cycles_ticked(); }

  // -- Runtime monitors ---------------------------------------------------
  bool monitors_enabled() const { return shadow_ != nullptr; }
  // Bus watcher + shadow checker trips, merged.
  monitor::TripCounters MonitorCounters() const;
  // Trips observed since the last call (the supervisor's escalation input;
  // see Supervisor::PollMonitors). Always 0 with monitors disabled.
  uint64_t ConsumeMonitorTrips();
  const monitor::ShadowChecker* shadow_checker() const { return shadow_.get(); }
  const monitor::BusWatcher* bus_watcher() const { return watcher_.get(); }

 protected:
  // The CWorld -> CEepDriver request: action, device address, offset,
  // length, then the payload. Lengths run 1..14 (two offset bytes share the
  // 16-byte transaction payload).
  static constexpr int kRequestWords = 20;
  static constexpr int kMaxPayload = 14;
  using Request = std::array<int32_t, kRequestWords>;

  DriverCore(const TimingModel& timing, const sim::FaultPlan& fault_plan,
             const RecoveryPolicy& recovery, bool capture_waveform);
  ~DriverCore();

  // -- Timeline -----------------------------------------------------------
  // Adds busy CPU time (also advances the software clock).
  void Busy(double ns) {
    sw_time_ns_ += ns;
    cpu_busy_ns_ += ns;
  }
  // Advances wall time without CPU work (sleeping between retries); the
  // hardware — including a device write cycle — keeps running.
  void Idle(double ns) {
    sw_time_ns_ += ns;
    SyncRtl();
  }
  // Advances the RTL domain to the software timeline.
  void SyncRtl() { rtl_.TickUntil(sw_time_ns_); }
  // Bills the shadow checker's per-event cost (a bounds compare per message
  // word plus loop overhead) against the modeled CPU — the checker is driver
  // software and pays for its instructions like any other code path.
  void ShadowBusy(size_t words) {
    Busy(timing_.sw_instr_ns * static_cast<double>(4 + 3 * words));
  }

  // -- Construction -------------------------------------------------------
  // The primary EEPROM on `device_bus`, clocked by the timing model and fed
  // by the driver's fault plan.
  void AddEeprom(sim::I2cBus* device_bus, const sim::EepromConfig& config);
  // Instantiates the top `layers` controller layers of compilation_ in the
  // software VM, chains them and binds the CWorld request/reply ports of the
  // top one. Returns the bottom layer's process.
  int WireSoftwareStack(int layers);
  // Bills the VM instructions retired since the last call.
  void BillSoftwareSteps() {
    const uint64_t steps = sw_.TotalSteps();
    Busy(static_cast<double>(steps - last_sw_steps_) * timing_.sw_instr_ns);
    last_sw_steps_ = steps;
  }
  // Runtime monitors: a shadow checker over `spec` (null: only the wait and
  // interrupt checks) and a bus watcher. The watcher is added after every
  // active component: it observes the cycle's committed state and drives
  // nothing.
  void AttachMonitors(const monitor::MonitorSpec* spec, const rtl::MmioRegfile* regfile,
                      const monitor::BusWatcherOptions& options);
  // The part of SoftReset every driver shares: counts the reset, clears the
  // monitors' protocol state and forgets the wedge and the last status.
  void ResetBookkeeping();

  // -- Request encoding ---------------------------------------------------
  static Request ReadRequest(int bus_address, int offset, int length);
  static Request WriteRequest(int bus_address, int offset, std::span<const uint8_t> data);
  // Copies a read reply's payload to `out` (when non-null); false when the
  // stack returned a different byte count than asked for.
  static bool DecodeRead(std::span<const int32_t> reply, int length, std::vector<uint8_t>* out);

  // -- Retry ladder -------------------------------------------------------
  // One operation under the recovery policy. `attempt()` runs one try and
  // returns the reply's CE_RES_* status, or nullopt when the stack stopped
  // responding (stuck bus, dead hardware): the software layers are blocked
  // mid-protocol, so that is terminal and wedges the driver.
  // `recover(timed_out)` runs when the policy asks for bus recovery after a
  // timeout or a non-NACK failure; `clock()` is the timeline the deadline
  // reads.
  template <typename Attempt, typename Recover, typename Clock>
  bool Transact(Attempt attempt, Recover recover, Clock clock) {
    const RecoveryPolicy& policy = recovery_;
    if (wedged_) {
      last_status_ = i2c::kCeResFail;
      return false;
    }
    double backoff = policy.initial_backoff_ns;
    const double deadline = clock() + policy.op_deadline_ns;
    for (int tries = 1;; ++tries) {
      ++recovery_counters_.attempts;
      const std::optional<int32_t> status = attempt();
      if (!status.has_value()) {
        ++recovery_counters_.timeouts;
        wedged_ = true;
        last_status_ = i2c::kCeResFail;
        if (policy.enabled && policy.bus_recovery) {
          recover(/*timed_out=*/true);
        }
        return false;
      }
      last_status_ = *status;
      if (last_status_ == i2c::kCeResOk) {
        return true;
      }
      if (last_status_ == i2c::kCeResNack) {
        ++recovery_counters_.nacks;
      } else {
        ++recovery_counters_.failures;
        if (policy.enabled && policy.bus_recovery) {
          recover(/*timed_out=*/false);
        }
      }
      if (!policy.enabled || tries >= policy.max_attempts) {
        return false;
      }
      if (clock() + backoff > deadline) {
        ++recovery_counters_.deadline_hits;
        return false;
      }
      ++recovery_counters_.retries;
      recovery_counters_.backoff_ns += backoff;
      Idle(backoff);
      backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff_ns);
    }
  }

  // Re-probe after a reset: a single-byte read from offset 0 of
  // `bus_address`, run once through `attempt(request, &reply)` and bypassing
  // the retry ladder. True if the device answered with data.
  template <typename Attempt>
  bool ProbeDevice(int bus_address, Attempt attempt) {
    ++recovery_counters_.reprobes;
    std::vector<int32_t> reply;
    return attempt(ReadRequest(bus_address, 0, 1), &reply) && reply[0] == i2c::kCeResOk &&
           reply[1] == 1;
  }

  // The 9-clock-pulse + START/STOP bus-recovery sequence (i2c_recover_bus
  // style) on `bus_driver`, holding each level with `hold()`: a responder
  // left mid-read releases SDA within nine clocks, and the manufactured STOP
  // returns every device FSM to idle.
  template <typename Hold>
  void RecoverBus(int bus_driver, Hold hold) {
    ++recovery_counters_.bus_recoveries;
    for (int pulse = 0; pulse < 9; ++pulse) {
      bus_.SetDriver(bus_driver, /*scl=*/false, /*sda=*/true);
      hold();
      bus_.SetDriver(bus_driver, /*scl=*/true, /*sda=*/true);
      hold();
    }
    bus_.SetDriver(bus_driver, /*scl=*/true, /*sda=*/false);
    hold();
    bus_.SetDriver(bus_driver, /*scl=*/true, /*sda=*/true);
    hold();
  }

  // Runs `ops` consecutive `read(&data)` calls after one warm-up read and
  // reports the measured SCL frequency, CPU usage and interrupt count (paper
  // sections 5.2/5.3), plus the growth of `exec()` over the measured reads.
  template <typename Read, typename Exec>
  DriverMetrics MeasureReads(int ops, Read read, Exec exec) {
    DriverMetrics metrics;
    std::vector<uint8_t> data;
    if (!read(&data)) {
      metrics.functional = false;
      metrics.note = "warm-up read failed";
      return metrics;
    }
    bus_.ClearSamples();
    const double start_busy = cpu_busy_ns_;
    const double start_time = now_ns();
    const uint64_t start_irqs = irq_count_;
    const uint64_t start_ticked = rtl_.cycles_ticked();
    const ExecCounters start_exec = exec();
    for (int i = 0; i < ops; ++i) {
      if (!read(&data)) {
        metrics.functional = false;
        metrics.note = "read failed";
        return metrics;
      }
    }
    metrics.elapsed_ns = now_ns() - start_time;
    metrics.rtl_cycles_ticked = rtl_.cycles_ticked() - start_ticked;
    metrics.cpu_usage =
        metrics.elapsed_ns > 0 ? (cpu_busy_ns_ - start_busy) / metrics.elapsed_ns : 0;
    metrics.irq_count = irq_count_ - start_irqs;
    const ExecCounters end_exec = exec();
    metrics.instructions_retired = end_exec.instructions_retired - start_exec.instructions_retired;
    metrics.mmio_bursts = end_exec.mmio_bursts - start_exec.mmio_bursts;
    metrics.irqs_coalesced = end_exec.irqs_coalesced - start_exec.irqs_coalesced;
    metrics.vm_host_seconds = end_exec.vm_host_seconds - start_exec.vm_host_seconds;
    metrics.frequency = sim::AnalyzeSclFrequency(bus_.samples());
    metrics.recovery = recovery_counters_;
    metrics.faults_injected = fault_plan_.faults_injected();
    metrics.monitor = MonitorCounters();
    return metrics;
  }

  TimingModel timing_;
  RecoveryPolicy recovery_;
  rtl::RtlSystem rtl_;
  sim::I2cBus bus_;
  std::unique_ptr<sim::Eeprom24aa512> eeprom_;

  // Software side (empty for a driver without software layers). The
  // compiled controller stack outlives the VM processes that run it.
  std::shared_ptr<const ir::Compilation> compilation_;
  vm::System sw_;
  vm::PortRef top_in_;   // CWorld -> CEepDriver injection point
  vm::PortRef top_out_;  // CEepDriver -> CWorld result point
  uint64_t last_sw_steps_ = 0;

  double sw_time_ns_ = 0;
  double cpu_busy_ns_ = 0;
  uint64_t irq_count_ = 0;

  // Runtime monitors (null unless attached).
  monitor::MonitorSpec monitor_spec_;
  std::unique_ptr<monitor::ShadowChecker> shadow_;
  std::unique_ptr<monitor::BusWatcher> watcher_;
  uint64_t consumed_monitor_trips_ = 0;

  // Fault injection and recovery.
  sim::FaultPlan fault_plan_;
  RecoveryCounters recovery_counters_;
  int32_t last_status_ = i2c::kCeResOk;
  bool wedged_ = false;
};

}  // namespace efeu::driver

#endif  // SRC_DRIVER_CORE_H_
