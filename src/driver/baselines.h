// The two baselines of the paper's evaluation (section 5): the Linux
// "bit-banging" GPIO driver (all software, pacing the bus with udelay and
// paying GPIO access costs per half cycle) and the Xilinx AXI IIC IP (a
// transaction-level hardware engine with FIFO service interrupts). Both run
// on the driver core (src/driver/core.h) the hybrid driver runs on.

#ifndef SRC_DRIVER_BASELINES_H_
#define SRC_DRIVER_BASELINES_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/driver/core.h"
#include "src/driver/recovery.h"
#include "src/driver/timing.h"
#include "src/monitor/bus_watcher.h"
#include "src/sim/eeprom.h"
#include "src/sim/fault_plan.h"
#include "src/sim/xilinx_ip.h"
#include "src/vm/system.h"

namespace efeu::driver {

// Linux i2c-gpio style bit-banging: the full (verified, generated) stack runs
// in software; every electrical half cycle costs two GPIO writes, the
// configured udelay, and two GPIO reads for sampling. The CPU spins the
// whole time.
class BitBangDriver : public DriverCore {
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

 private:
  bool RunOperation(std::span<const int32_t> request, std::vector<int32_t>* reply);
  // RunOperation under the core's retry ladder. Deadlines read the software
  // clock, and bus recovery bit-bangs each level through the GPIO lines.
  bool Transact(std::span<const int32_t> request, std::vector<int32_t>* reply);

  int gpio_driver_id_ = -1;
  bool gpio_sda_ = true;
  bool gpio_scl_ = true;
  vm::PortRef levels_out_;  // CSymbol -> Electrical
  vm::PortRef levels_in_;   // Electrical -> CSymbol
  int eeprom_address_;
};

// Xilinx AXI IIC baseline: hardware engine plus an interrupt-driven driver
// that services the FIFO per payload byte.
class XilinxIpDriver : public DriverCore {
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

 private:
  // The attempt the core's ladder runs for a transaction just queued on the
  // engine (under the default, disabled policy: exactly one): bills the TX
  // FIFO setup, waits for the completion interrupt and bills the FIFO
  // service. Returns the reply status, or nullopt when the wait timed out or
  // the completion interrupt never arrived.
  std::optional<int32_t> RunEngine(int payload_bytes);

  std::unique_ptr<sim::XilinxIpEngine> engine_;
  int eeprom_address_;
};

}  // namespace efeu::driver

#endif  // SRC_DRIVER_BASELINES_H_
