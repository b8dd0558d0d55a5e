#include "src/sim/bus_adapter.h"

#include <algorithm>
#include <cassert>

namespace efeu::sim {

BusAdapter::BusAdapter(I2cBus* bus, int half_cycle_ticks, bool deadline_pacing)
    : bus_(bus),
      driver_id_(bus->AddDriver()),
      half_cycle_ticks_(half_cycle_ticks),
      deadline_pacing_(deadline_pacing) {}

void BusAdapter::Evaluate() {
  next_phase_ = phase_;
  next_hold_left_ = hold_left_;
  next_drive_scl_ = drive_scl_;
  next_drive_sda_ = drive_sda_;
  next_sample_scl_ = sample_scl_;
  next_sample_sda_ = sample_sda_;
  next_out_ready_ = out_ready_;
  next_out_valid_ = out_valid_;

  ++tick_;
  switch (phase_) {
    case Phase::kWaitLevels:
      assert(down_wire_ != nullptr);
      if (out_ready_ && down_wire_->valid) {
        next_drive_scl_ = down_wire_->data[0] != 0;
        next_drive_sda_ = down_wire_->data[1] != 0;
        next_out_ready_ = false;
        // Deadline pacing: back-to-back traffic is sampled one half period
        // after the previous sample (FSM handshake latency does not stretch
        // the bus period); a peer that shows up later than a half period
        // pays the full hold from this transition, like the real timed
        // adapter.
        int64_t deadline;
        if (!deadline_pacing_ || tick_ - prev_sample_tick_ > half_cycle_ticks_) {
          deadline = tick_ + half_cycle_ticks_;
        } else {
          deadline = std::max(tick_ + kMinHoldTicks, prev_sample_tick_ + half_cycle_ticks_);
        }
        next_hold_left_ = static_cast<int>(deadline - tick_);
        next_phase_ = Phase::kHold;
      } else {
        next_out_ready_ = true;
      }
      break;
    case Phase::kHold:
      if (hold_left_ > 1) {
        next_hold_left_ = hold_left_ - 1;
      } else {
        // Sample the combined bus at the end of the half cycle.
        if (fault_plan_ != nullptr) {
          fault_plan_->StepLineFaults(bus_);
        }
        bool sampled_scl = bus_->scl();
        bool sampled_sda = bus_->sda();
        // An ACK-window glitch can only flip a low bit the adapter is
        // listening to (its own SDA released, somebody else pulling low).
        if (!sampled_sda && drive_sda_ && fault_plan_ != nullptr &&
            fault_plan_->ConsultAckGlitch()) {
          sampled_sda = true;
        }
        next_sample_scl_ = sampled_scl;
        next_sample_sda_ = sampled_sda;
        prev_sample_tick_ = tick_;
        next_phase_ = Phase::kSendSample;
      }
      break;
    case Phase::kSendSample:
      assert(up_wire_ != nullptr);
      if (out_valid_ && up_wire_->ready) {
        next_out_valid_ = false;
        next_phase_ = Phase::kWaitLevels;
      } else {
        next_out_valid_ = true;
      }
      break;
  }
}

uint64_t BusAdapter::IdleCycles() const {
  // The wires must already show what Commit() would publish again.
  if (down_wire_ == nullptr || up_wire_ == nullptr || down_wire_->ready != out_ready_ ||
      up_wire_->valid != out_valid_ || up_wire_->data[0] != (sample_scl_ ? 1 : 0) ||
      up_wire_->data[1] != (sample_sda_ ? 1 : 0)) {
    return 0;
  }
  switch (phase_) {
    case Phase::kWaitLevels:
      return out_ready_ && !down_wire_->valid ? rtl::kIdleForever : 0;
    case Phase::kHold:
      return hold_left_ > 1 ? static_cast<uint64_t>(hold_left_ - 1) : 0;
    case Phase::kSendSample:
      return out_valid_ && !up_wire_->ready ? rtl::kIdleForever : 0;
  }
  return 0;
}

void BusAdapter::AdvanceIdle(uint64_t edges) {
  tick_ += static_cast<int64_t>(edges);
  if (phase_ == Phase::kHold) {
    hold_left_ -= static_cast<int>(edges);
  }
}

void BusAdapter::Commit() {
  phase_ = next_phase_;
  hold_left_ = next_hold_left_;
  drive_scl_ = next_drive_scl_;
  drive_sda_ = next_drive_sda_;
  sample_scl_ = next_sample_scl_;
  sample_sda_ = next_sample_sda_;
  out_ready_ = next_out_ready_;
  out_valid_ = next_out_valid_;

  bus_->SetDriver(driver_id_, drive_scl_, drive_sda_);
  if (down_wire_ != nullptr) {
    down_wire_->ready = out_ready_;
  }
  if (up_wire_ != nullptr) {
    up_wire_->valid = out_valid_;
    up_wire_->data[0] = sample_scl_ ? 1 : 0;
    up_wire_->data[1] = sample_sda_ ? 1 : 0;
  }
}

}  // namespace efeu::sim
