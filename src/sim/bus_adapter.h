// The hand-written bus adapter (paper sections 2.3 and 6.1): translates the
// discrete (SCL, SDA) level pairs of the Electrical-layer protocol into
// timed half cycles on the open-drain bus. It receives a level pair over the
// standard ready/valid handshake, drives the bus for one half cycle of the
// target Fast Mode clock (400 kHz => 1.25 us at 100 MHz), samples the
// combined bus state, and hands the sample back — letting the whole stack
// above work with discrete time.

#ifndef SRC_SIM_BUS_ADAPTER_H_
#define SRC_SIM_BUS_ADAPTER_H_

#include "src/rtl/component.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/support/check.h"

namespace efeu::sim {

class BusAdapter : public rtl::RtlComponent {
 public:
  // `half_cycle_ticks` is the nominal half period in clock ticks (125 ticks
  // at 100 MHz = 400 kHz SCL). The adapter paces with a deadline timer: new
  // levels are applied on arrival and the sample is taken `half_cycle_ticks`
  // after the previous sample (or `kMinHoldTicks` after arrival, whichever
  // is later), so FSM handshake latency does not stretch the bus period —
  // but a slow software peer does.
  // `deadline_pacing` false falls back to a fixed full-half-period hold per
  // level pair (ablation: FSM latency then stretches the bus period).
  BusAdapter(I2cBus* bus, int half_cycle_ticks, bool deadline_pacing = true);

  static constexpr int kMinHoldTicks = 40;

  // Levels from the layer above (this component receives).
  void BindDown(rtl::HsWire* wire) { down_wire_ = wire; }
  // Sampled levels back up (this component sends): a two-word (SCL, SDA)
  // wire.
  void BindUp(rtl::HsWire* wire) {
    EFEU_CHECK(wire->data.size() == 2, "BusAdapter::BindUp: the sample wire needs two words");
    up_wire_ = wire;
  }

  // Electrical fault injection (stuck lines, ACK-window glitches), consulted
  // at every bus sample. Non-owning; nullptr = ideal bus.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  // Soft reset: abandons any half cycle in flight, releases both lines and
  // deasserts the handshake outputs (published immediately, like
  // MmioRegfile::SoftReset). The pacing clock keeps running.
  void Reset() {
    phase_ = Phase::kWaitLevels;
    next_phase_ = Phase::kWaitLevels;
    hold_left_ = 0;
    next_hold_left_ = 0;
    drive_scl_ = next_drive_scl_ = true;
    drive_sda_ = next_drive_sda_ = true;
    out_ready_ = next_out_ready_ = false;
    out_valid_ = next_out_valid_ = false;
    bus_->SetDriver(driver_id_, true, true);
    if (down_wire_ != nullptr) {
      down_wire_->ready = false;
    }
    if (up_wire_ != nullptr) {
      up_wire_->valid = false;
    }
  }

  void Evaluate() override;
  void Commit() override;
  // Idle through a half-cycle hold (all but its sampling edge) and while
  // parked on a handshake; the pacing clock tick_ advances across skips.
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

 private:
  enum class Phase { kWaitLevels, kHold, kSendSample };

  I2cBus* bus_;
  int driver_id_;
  int half_cycle_ticks_;
  bool deadline_pacing_;
  rtl::HsWire* down_wire_ = nullptr;
  rtl::HsWire* up_wire_ = nullptr;
  FaultPlan* fault_plan_ = nullptr;

  Phase phase_ = Phase::kWaitLevels;
  int hold_left_ = 0;
  int64_t tick_ = 0;
  int64_t prev_sample_tick_ = -1000000;
  bool drive_scl_ = true;
  bool drive_sda_ = true;
  bool sample_scl_ = true;
  bool sample_sda_ = true;
  bool out_ready_ = false;
  bool out_valid_ = false;

  Phase next_phase_ = Phase::kWaitLevels;
  int next_hold_left_ = 0;
  bool next_drive_scl_ = true;
  bool next_drive_sda_ = true;
  bool next_sample_scl_ = true;
  bool next_sample_sda_ = true;
  bool next_out_ready_ = false;
  bool next_out_valid_ = false;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_BUS_ADAPTER_H_
