#include "src/sim/second_master.h"

#include <cmath>

namespace efeu::sim {

SecondMaster::SecondMaster(I2cBus* bus, const SecondMasterConfig& config)
    : bus_(bus), config_(config), driver_id_(bus->AddDriver()) {}

void SecondMaster::Evaluate() {
  bool scl = bus_->scl();
  bool sda = bus_->sda();
  switch (state_) {
    case State::kIdle:
      // START: SDA falls while SCL is high. Each one is an arbitration
      // opportunity; our own release never generates one (SDA only rises).
      if (scl && prev_scl_ && prev_sda_ && !sda) {
        ++starts_seen_;
        if (fault_plan_ != nullptr) {
          if (int duration = fault_plan_->Consult(FaultKind::kArbitrationLoss)) {
            state_ = State::kHolding;
            ticks_left_ = static_cast<int64_t>(
                std::llround(duration * config_.hold_ns_per_unit / config_.clock_ns));
            next_scl_ = false;
            next_sda_ = false;
            ++wins_;
          }
        }
      }
      break;
    case State::kHolding:
      if (--ticks_left_ <= 0) {
        // Release SCL first; SDA stays low so the coming rise is a STOP.
        state_ = State::kSclReleased;
        ticks_left_ =
            static_cast<int64_t>(std::llround(config_.release_ns / config_.clock_ns));
        next_scl_ = true;
        next_sda_ = false;
      }
      break;
    case State::kSclReleased:
      if (--ticks_left_ <= 0) {
        state_ = State::kIdle;
        next_scl_ = true;
        next_sda_ = true;
      }
      break;
  }
  prev_scl_ = scl;
  prev_sda_ = sda;
}

uint64_t SecondMaster::IdleCycles() const {
  if (bus_->scl() != prev_scl_ || bus_->sda() != prev_sda_) {
    return 0;
  }
  if (state_ == State::kIdle) {
    return rtl::kIdleForever;
  }
  // The countdown's last edge changes state.
  return ticks_left_ > 1 ? static_cast<uint64_t>(ticks_left_ - 1) : 0;
}

void SecondMaster::AdvanceIdle(uint64_t edges) {
  if (state_ != State::kIdle) {
    ticks_left_ -= static_cast<int64_t>(edges);
  }
}

void SecondMaster::Commit() {
  bus_->SetDriver(driver_id_, next_scl_, next_sda_);
}

}  // namespace efeu::sim
