// The two baselines of the paper's evaluation (section 5): the Linux
// "bit-banging" GPIO driver (all software, pacing the bus with udelay and
// paying GPIO access costs per half cycle) and the Xilinx AXI IIC IP (a
// transaction-level hardware engine with FIFO service interrupts).

#ifndef SRC_DRIVER_BASELINES_H_
#define SRC_DRIVER_BASELINES_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/driver/hybrid.h"
#include "src/driver/timing.h"
#include "src/ir/compile.h"
#include "src/monitor/bus_watcher.h"
#include "src/monitor/monitor_spec.h"
#include "src/monitor/shadow_checker.h"
#include "src/rtl/system.h"
#include "src/sim/eeprom.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/xilinx_ip.h"
#include "src/vm/system.h"

namespace efeu::driver {

// Linux i2c-gpio style bit-banging: the full (verified, generated) stack runs
// in software; every electrical half cycle costs two GPIO writes, the
// configured udelay, and two GPIO reads for sampling. The CPU spins the
// whole time.
class BitBangDriver {
 public:
  BitBangDriver(const TimingModel& timing, const sim::EepromConfig& eeprom,
                bool capture_waveform = false, const sim::FaultPlan& fault_plan = {},
                const RecoveryPolicy& recovery = {});
  ~BitBangDriver();

  bool Read(int offset, int length, std::vector<uint8_t>* out);
  bool Write(int offset, const std::vector<uint8_t>& data);
  DriverMetrics MeasureReads(int ops, int length);

  // Supervision-ladder entry points (all-software driver: coroutine reinit
  // plus releasing the GPIO lines) and a single-byte re-probe.
  void SoftReset();
  bool Probe();

  // Runtime monitors: a ShadowChecker on the CWorld request/reply boundary
  // plus a BusWatcher on the GPIO-driven bus. No-op until enabled.
  void EnableMonitors(monitor::BusWatcherOptions options = {});
  bool monitors_enabled() const { return shadow_ != nullptr; }
  monitor::TripCounters MonitorCounters() const;
  // Trips since the last call (the supervisor's escalation input).
  uint64_t ConsumeMonitorTrips();

  sim::I2cBus& bus() { return bus_; }
  sim::Eeprom24aa512& eeprom() { return *eeprom_; }
  sim::FaultPlan& fault_plan() { return fault_plan_; }
  const RecoveryCounters& recovery_counters() const { return recovery_counters_; }
  int32_t last_status() const { return last_status_; }
  bool wedged() const { return wedged_; }
  double now_ns() const { return std::max(sw_time_ns_, rtl_.time_ns()); }

 private:
  bool RunOperation(const std::vector<int32_t>& request, std::vector<int32_t>* reply);
  bool Transact(const std::vector<int32_t>& request, std::vector<int32_t>* reply);
  void RecoverBus();
  void Busy(double ns);
  void Idle(double ns);
  void SyncRtl();

  TimingModel timing_;
  std::unique_ptr<ir::Compilation> compilation_;
  rtl::RtlSystem rtl_;
  sim::I2cBus bus_;
  int gpio_driver_id_ = -1;
  bool gpio_sda_ = true;
  bool gpio_scl_ = true;
  std::unique_ptr<sim::Eeprom24aa512> eeprom_;
  vm::System sw_;
  vm::PortRef top_in_;
  vm::PortRef top_out_;
  vm::PortRef levels_out_;  // CSymbol -> Electrical
  vm::PortRef levels_in_;   // Electrical -> CSymbol
  uint64_t last_sw_steps_ = 0;
  double sw_time_ns_ = 0;
  double cpu_busy_ns_ = 0;
  int eeprom_address_;

  // Fault injection and recovery (mirrors HybridDriver).
  sim::FaultPlan fault_plan_;
  RecoveryPolicy recovery_;
  RecoveryCounters recovery_counters_;
  int32_t last_status_ = 0;
  bool wedged_ = false;

  // Runtime monitors (null until EnableMonitors).
  monitor::MonitorSpec monitor_spec_;
  std::unique_ptr<monitor::ShadowChecker> shadow_;
  std::unique_ptr<monitor::BusWatcher> watcher_;
  uint64_t consumed_monitor_trips_ = 0;
};

// Xilinx AXI IIC baseline: hardware engine plus an interrupt-driven driver
// that services the FIFO per payload byte.
class XilinxIpDriver {
 public:
  XilinxIpDriver(const TimingModel& timing, const sim::EepromConfig& eeprom,
                 bool capture_waveform = false, const sim::FaultPlan& fault_plan = {});
  ~XilinxIpDriver();

  bool Read(int offset, int length, std::vector<uint8_t>* out);
  bool Write(int offset, const std::vector<uint8_t>& data);
  DriverMetrics MeasureReads(int ops, int length);

  // Supervision-ladder entry points: the AXI IIC SOFTR-style engine reset
  // and a single-byte re-probe.
  void SoftReset();
  bool Probe();

  // Runtime monitors. The IP has no generated boundary, so only the wire
  // watcher and the wait/interrupt checks apply (null message spec).
  void EnableMonitors(monitor::BusWatcherOptions options = {});
  bool monitors_enabled() const { return shadow_ != nullptr; }
  monitor::TripCounters MonitorCounters() const;
  uint64_t ConsumeMonitorTrips();

  sim::I2cBus& bus() { return bus_; }
  sim::Eeprom24aa512& eeprom() { return *eeprom_; }
  sim::FaultPlan& fault_plan() { return fault_plan_; }
  const RecoveryCounters& recovery_counters() const { return recovery_counters_; }
  int32_t last_status() const { return last_status_; }
  bool wedged() const { return wedged_; }

 private:
  // One transaction on the engine; waits for the completion interrupt.
  bool RunEngine(int payload_bytes);

  TimingModel timing_;
  rtl::RtlSystem rtl_;
  sim::I2cBus bus_;
  std::unique_ptr<sim::XilinxIpEngine> engine_;
  std::unique_ptr<sim::Eeprom24aa512> eeprom_;
  double cpu_busy_ns_ = 0;
  uint64_t irq_count_ = 0;
  int eeprom_address_;

  // Boundary fault injection and supervision surface (mirrors HybridDriver;
  // the engine itself has no wire-fault consult points, but dropped and
  // spurious completion interrupts hit this driver like any other).
  sim::FaultPlan fault_plan_;
  RecoveryCounters recovery_counters_;
  int32_t last_status_ = 0;
  bool wedged_ = false;

  // Runtime monitors (null until EnableMonitors).
  std::unique_ptr<monitor::ShadowChecker> shadow_;
  std::unique_ptr<monitor::BusWatcher> watcher_;
  uint64_t consumed_monitor_trips_ = 0;
};

}  // namespace efeu::driver

#endif  // SRC_DRIVER_BASELINES_H_
