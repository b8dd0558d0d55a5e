// The hybrid hardware/software driver runtime (paper sections 3.5 and 5):
// instantiates the generated controller stack with the software/hardware
// boundary at a chosen layer interface. Layers above the split run in the
// software VM on a modeled CPU timeline; layers at/below the split run as
// clocked FSMs in the RTL simulator; the generated MMIO-AXI Lite register
// file couples the two, with polling or interrupt-driven waits on the
// software side. A behavioural 24AA512 EEPROM hangs off the simulated
// open-drain bus.

#ifndef SRC_DRIVER_HYBRID_H_
#define SRC_DRIVER_HYBRID_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/driver/core.h"
#include "src/driver/recovery.h"
#include "src/driver/timing.h"
#include "src/ir/compile.h"
#include "src/monitor/bus_watcher.h"
#include "src/rtl/regfile.h"
#include "src/rtl/rtl_module.h"
#include "src/sim/bus_adapter.h"
#include "src/sim/eeprom.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/mux.h"
#include "src/sim/regfile_device.h"
#include "src/sim/second_master.h"
#include "src/vm/system.h"

namespace efeu::driver {

// Denoted by the topmost hardware layer, like the paper: Electrical has only
// the bus adapter in hardware; EepDriver has the whole stack in hardware.
enum class SplitPoint {
  kElectrical,
  kSymbol,
  kByte,
  kTransaction,
  kEepDriver,
};

const char* SplitPointName(SplitPoint split);

// Optional bus-fabric growth between the controller and its devices. All of
// it is off by default: an unconfigured driver builds the exact
// point-to-point bus it always did, byte for byte.
struct MuxTopologyConfig {
  bool enabled = false;
  sim::MuxConfig mux;
  // Downstream channel the modeled devices (EEPROMs, MFDs) hang off; the
  // driver must program the mux before they are reachable.
  int device_channel = 0;
};

struct HybridConfig {
  SplitPoint split = SplitPoint::kByte;
  bool interrupt_driven = false;
  // Batch the hybrid boundary: move adjacent MMIO data words as one AXI
  // burst (first beat at full cost, later beats at mmio_burst_word_ns)
  // instead of one bus transaction per word. The doorbell/ready writes stay
  // separate accesses, so every boundary fault point is preserved.
  bool mmio_bursts = false;
  // Interrupt coalescing: after an IRQ-driven wakeup the driver keeps
  // polling the status register for this long before re-arming the sleeping
  // wait, so back-to-back up-messages ride one interrupt. The window bounds
  // the extra latency of the monitors' view: the shadow checker still sees
  // every message no later than the drain deadline. 0 disables.
  double irq_coalesce_window_ns = 0.0;
  TimingModel timing;
  // Modeled EEPROM (the responder on the bus).
  sim::EepromConfig eeprom;
  // Additional EEPROMs sharing the bus (distinct addresses) — the
  // interoperability scenario the paper motivates.
  std::vector<sim::EepromConfig> extra_eeproms;
  // Register-file MFD devices (sim::MfdRegFileDevice) sharing the device
  // segment, driven through MfdClient over the unmodified controller stack.
  std::vector<sim::MfdConfig> mfd_devices;
  // Bus mux between controller and devices; the driver gains a select+verify
  // step (EnsureMuxSelected) and the kMuxStuck/kMuxMisroute fault surface.
  MuxTopologyConfig mux_topology;
  // A competing bus master (multi-master arbitration): kArbitrationLoss
  // seizes the bus at a START, and the supervisor gains the WaitBusFree rung.
  bool enable_second_master = false;
  sim::SecondMasterConfig second_master;
  // Share one compiled controller stack across many drivers (the compilation
  // is const after construction). Null = compile privately, as before; the
  // fleet passes one compilation to thousands of stacks.
  std::shared_ptr<const ir::Compilation> shared_compilation;
  bool capture_waveform = false;
  // Deterministic fault injection on the simulated bus and the primary
  // EEPROM (extra EEPROMs stay ideal). Default-constructed = inactive.
  sim::FaultPlan fault_plan;
  // Retry/timeout/backoff policy; disabled by default.
  RecoveryPolicy recovery;
  // Ablations (see bench/bench_ablation.cc and DESIGN.md).
  bool ablate_no_auto_reset = false;
  bool ablate_fixed_hold_adapter = false;
  // Runtime assertion monitors synthesized from the boundary's ESI spec: a
  // BusWatcher RTL component on the bus/regfile plus a ShadowChecker FSM on
  // every boundary event. Off by default — an unmonitored driver is
  // byte-identical to one built before monitors existed.
  bool enable_monitors = false;
  // Tick limits for the bus watcher; the defaults suit the default timing
  // model (64 bus cycles stuck, ~0.7 ms handshake stall).
  monitor::BusWatcherOptions watcher;
};

class HybridDriver : public DriverCore {
 public:
  explicit HybridDriver(const HybridConfig& config);
  ~HybridDriver();

  // EEPROM operations through the full generated stack. Lengths up to 14
  // bytes (two offset bytes share the 16-byte transaction payload).
  bool Read(int offset, int length, std::vector<uint8_t>* out);
  bool Write(int offset, const std::vector<uint8_t>& data);
  // Same, addressing a specific device on the bus.
  bool ReadFrom(int bus_address, int offset, int length, std::vector<uint8_t>* out);
  bool WriteTo(int bus_address, int offset, const std::vector<uint8_t>& data);

  // Runs `ops` consecutive reads of `length` bytes and reports the measured
  // SCL frequency, CPU usage and interrupt count (paper sections 5.2/5.3).
  DriverMetrics MeasureReads(int ops, int length);

  // Hardware soft reset + coroutine reinit (the supervision ladder's third
  // rung): returns every hardware FSM, the register file, the bus adapter
  // and every software layer to its initial state, clears the wedged flag
  // and releases the bus. Device-internal state (e.g. an EEPROM mid-read) is
  // NOT touched — run bus recovery first if the device may be mid-transfer.
  void SoftReset();
  // Re-probe after a reset: a single-byte read from the device, bypassing
  // the retry ladder. True if the device answered with data.
  bool Probe();

  // Multi-master rung: waits until the bus has been idle (both lines high)
  // for two consecutive polls or bus_free_timeout_ns elapsed. A no-op
  // returning true unless a second master is configured, so the supervised
  // single-master timeline is untouched. Counts arbitration_waits when the
  // wait actually found the bus owned.
  bool WaitBusFree();
  // Mux rung: programs the mux's channel mask for the device segment and
  // verifies it by read-back, retrying per the recovery policy. Cached until
  // the next SoftReset; a no-op returning true without a mux.
  bool EnsureMuxSelected();

  sim::Eeprom24aa512& extra_eeprom(int index) { return *extra_eeproms_[index]; }
  // Topology components; null/empty unless configured.
  sim::I2cMux* mux() { return mux_.get(); }
  sim::SecondMaster* second_master() { return second_master_.get(); }
  sim::MfdRegFileDevice& mfd(int index) { return *mfds_[index]; }
  uint64_t mmio_bursts() const { return mmio_bursts_; }
  uint64_t irqs_coalesced() const { return irqs_coalesced_; }
  // Cumulative IR instructions executed by the software layers.
  uint64_t instructions_retired() const { return sw_.TotalSteps(); }
  // Cumulative host wall-clock spent inside the software VM.
  double vm_host_seconds() const;

  // The modules placed in hardware for this split (resource estimation).
  std::vector<const ir::Module*> HardwareModules() const;
  // Boundary message sizes in 32-bit words (MMIO register file sizing).
  int down_words() const { return down_words_; }
  int up_words() const { return up_words_; }
  const ir::Compilation& compilation() const { return *compilation_; }

 private:
  // Runs the software stack, accumulating host time into vm_host_ticks_
  // (the VM's share of driver cost). Timed with the cheapest monotonic
  // source available (rdtsc on x86): one VM slice per boundary pump is tens
  // of nanoseconds, so a steady_clock pair would be a measurable fraction of
  // the quantity under measurement.
  vm::SystemState RunSw();
  // Modeled cost of an AXI burst of `words` beats whose first beat costs
  // `first_ns` (single-access cost) and later beats pipeline.
  double BurstCost(double first_ns, int words) const;
  // The boundary transfers both the software pump and the all-hardware
  // path run. WriteDownMessage writes the data words (one burst or one
  // write per word), then the DOWN_VALID doorbell's MMIO write; the caller
  // decides whether the doorbell lands (lost-doorbell fault), so each path
  // bills its shadow check where it always has. ReceiveUpMessage arms
  // UP_READY, waits, reads the data words and acknowledges the message;
  // false when the wait failed. `message` aliases the latch or a driver
  // buffer and stays valid until the next receive.
  void WriteDownMessage(std::span<const int32_t> message);
  bool ReceiveUpMessage(std::span<const int32_t>* message);
  // One step of the host event loop; returns true when the top-level result
  // message became available (stored in result_) or the hardware missed its
  // deadline (pump_dead_).
  bool PumpOnce();
  // Waits until the register file has an up-message (polling or IRQ).
  bool WaitUpMessage();
  // Runs a full operation: sends `request` into the top of the stack and
  // returns the stack's reply.
  bool RunOperation(std::span<const int32_t> request, std::vector<int32_t>* reply);
  // RunOperation under the core's retry ladder; bus recovery holds each
  // level for one bus half cycle on the driver-owned recovery bus driver.
  bool Transact(std::span<const int32_t> request, std::vector<int32_t>* reply);
  // Transact on the device segment: selects the mux first, if there is one.
  bool TransactOnDevice(const Request& request, std::vector<int32_t>* reply);
  // One mux select + read-back verification round trip.
  bool SelectMuxOnce(int mask);

  HybridConfig config_;

  // RTL side.
  std::unique_ptr<sim::BusAdapter> adapter_;
  std::vector<std::unique_ptr<sim::Eeprom24aa512>> extra_eeproms_;
  // Topology (all empty/null on a point-to-point bus).
  std::vector<std::unique_ptr<sim::I2cBus>> downstream_buses_;
  std::unique_ptr<sim::I2cMux> mux_;
  std::unique_ptr<sim::SecondMaster> second_master_;
  std::vector<std::unique_ptr<sim::MfdRegFileDevice>> mfds_;
  bool mux_selected_ = false;
  std::unique_ptr<rtl::MmioRegfile> regfile_;
  std::vector<std::unique_ptr<rtl::RtlModule>> hw_modules_;

  // Software side.
  bool sw_empty_ = false;       // whole stack in hardware
  vm::PortRef boundary_down_;   // software layer's send into hardware
  vm::PortRef boundary_up_;     // software layer's receive from hardware
  // Per-word up-reads land here (bursts alias the latch instead).
  std::vector<int32_t> up_words_read_;

  uint64_t vm_host_ticks_ = 0;
  uint64_t mmio_bursts_ = 0;
  uint64_t irqs_coalesced_ = 0;
  // End of the post-IRQ polled drain window (interrupt coalescing).
  double irq_drain_deadline_ns_ = 0;
  int down_words_ = 0;
  int up_words_ = 0;

  int recovery_driver_id_ = -1;
  bool pump_dead_ = false;
};

}  // namespace efeu::driver

#endif  // SRC_DRIVER_HYBRID_H_
