// The hardware half of the synthesized runtime monitor: a passive RTL
// component clocked with the generated stack, watching the open-drain bus
// lines and the MMIO register file's handshake state. It is the simulation
// twin of the emitted `efeu_bus_watcher` Verilog module
// (codegen::GenerateVerilogBusWatcher): same checks, same trip kinds, same
// sticky-trip semantics — so a platform-sim detection bound carries over to
// the synthesized watcher.
//
// Checks (all bounded-window, so a trip is a hard fault, never jitter):
//   - SCL or SDA continuously low for more than `stuck_low_limit` ticks.
//     A legal zero run (9 data bits) or stretch burst spans a few bus
//     cycles; the default limit is far beyond either.
//   - The doorbell (down message published but unconsumed) or a latched up
//     message pending for more than `handshake_limit` ticks: the peer side
//     of the coupling is dead.

#ifndef SRC_MONITOR_BUS_WATCHER_H_
#define SRC_MONITOR_BUS_WATCHER_H_

#include <cstdint>

#include "src/monitor/monitor_spec.h"
#include "src/rtl/component.h"
#include "src/rtl/regfile.h"
#include "src/sim/i2c_bus.h"

namespace efeu::monitor {

struct BusWatcherOptions {
  // Ticks a line may stay continuously low. At the default 100 MHz clock and
  // 400 kHz bus this is 64 full bus cycles — a 9-bit zero run spans 9.
  int stuck_low_limit = 16000;
  // Ticks a published-but-unconsumed handshake may persist.
  int handshake_limit = 1 << 16;
};

class BusWatcher : public rtl::RtlComponent {
 public:
  // `regfile` may be null (all-software drivers watch only the wire).
  BusWatcher(const sim::I2cBus* bus, const rtl::MmioRegfile* regfile,
             BusWatcherOptions options = {});

  // -- RtlComponent (purely observational: drives nothing) ---------------
  void Evaluate() override;
  void Commit() override {}
  // Idle while no watched run resets, up to the edge before the next trip
  // (so first_trip_at stays exact); the tick count and the runs of the
  // conditions that hold advance across skipped edges.
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

  // Clears the sticky trip and the in-flight episode state, matching a
  // stack soft reset. Trip counters are cumulative and survive resets.
  void Reset();

  // Sticky: latched by the first trip, cleared only by Reset().
  bool tripped() const { return tripped_; }
  const TripCounters& counters() const { return counters_; }
  uint64_t ticks() const { return ticks_; }

 private:
  void Trip(TripKind kind, const char* what);

  const sim::I2cBus* bus_;
  const rtl::MmioRegfile* regfile_;
  BusWatcherOptions options_;

  uint64_t ticks_ = 0;
  bool tripped_ = false;
  TripCounters counters_;

  // Run lengths of the conditions under watch, plus a per-episode latch so
  // one continuous violation counts one trip.
  int scl_low_run_ = 0;
  int sda_low_run_ = 0;
  int down_pending_run_ = 0;
  int up_full_run_ = 0;
  bool scl_episode_ = false;
  bool sda_episode_ = false;
  bool down_episode_ = false;
  bool up_episode_ = false;
};

}  // namespace efeu::monitor

#endif  // SRC_MONITOR_BUS_WATCHER_H_
