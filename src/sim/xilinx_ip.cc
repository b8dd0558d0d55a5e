#include "src/sim/xilinx_ip.h"

namespace efeu::sim {

XilinxIpEngine::XilinxIpEngine(I2cBus* bus, int half_cycle_ticks, int interbyte_gap_ticks)
    : bus_(bus),
      driver_id_(bus->AddDriver()),
      half_cycle_ticks_(half_cycle_ticks),
      interbyte_gap_ticks_(interbyte_gap_ticks) {}

void XilinxIpEngine::PushStart(bool repeated) {
  if (repeated) {
    steps_.push_back(Step{false, true, false, false, 0});
    steps_.push_back(Step{true, true, false, false, 0});
  }
  steps_.push_back(Step{true, true, false, false, 0});
  steps_.push_back(Step{true, false, false, false, 0});
}

void XilinxIpEngine::PushStop() {
  steps_.push_back(Step{false, false, false, false, 0});
  steps_.push_back(Step{true, false, false, false, 0});
  steps_.push_back(Step{true, true, false, false, 0});
}

void XilinxIpEngine::PushWriteByte(uint8_t value, int gap_ticks) {
  for (int i = 7; i >= 0; --i) {
    bool b = ((value >> i) & 1) != 0;
    Step low{false, b, false, false, i == 7 ? gap_ticks : 0};
    steps_.push_back(low);
    steps_.push_back(Step{true, b, false, false, 0});
  }
  // Acknowledgment clock: release SDA and sample.
  steps_.push_back(Step{false, true, false, false, 0});
  steps_.push_back(Step{true, true, false, true, 0});
}

void XilinxIpEngine::PushReadByte(bool last, int gap_ticks) {
  for (int i = 7; i >= 0; --i) {
    Step low{false, true, false, false, i == 7 ? gap_ticks : 0};
    steps_.push_back(low);
    steps_.push_back(Step{true, true, true, false, 0});
  }
  // ACK every byte except the last (NACK ends the transfer).
  bool ack_level = last;  // drive low (ACK) unless last
  steps_.push_back(Step{false, ack_level, false, false, 0});
  steps_.push_back(Step{true, ack_level, false, false, 0});
}

void XilinxIpEngine::StartRead(int dev_address, int offset, int length) {
  steps_.clear();
  step_ = 0;
  hold_left_ = 0;
  ack_failure_ = false;
  read_data_.clear();
  bit_accum_ = 0;
  bits_seen_ = 0;
  payload_bytes_ = length;
  PushStart(false);
  PushWriteByte(static_cast<uint8_t>(dev_address << 1), 0);
  PushWriteByte(static_cast<uint8_t>((offset >> 8) & 0xFF), 0);
  PushWriteByte(static_cast<uint8_t>(offset & 0xFF), 0);
  PushStart(true);
  PushWriteByte(static_cast<uint8_t>((dev_address << 1) | 1), 0);
  for (int i = 0; i < length; ++i) {
    PushReadByte(i + 1 == length, interbyte_gap_ticks_);
  }
  PushStop();
}

void XilinxIpEngine::StartWrite(int dev_address, int offset,
                                const std::vector<uint8_t>& data) {
  steps_.clear();
  step_ = 0;
  hold_left_ = 0;
  ack_failure_ = false;
  read_data_.clear();
  bit_accum_ = 0;
  bits_seen_ = 0;
  payload_bytes_ = static_cast<int>(data.size());
  PushStart(false);
  PushWriteByte(static_cast<uint8_t>(dev_address << 1), 0);
  PushWriteByte(static_cast<uint8_t>((offset >> 8) & 0xFF), 0);
  PushWriteByte(static_cast<uint8_t>(offset & 0xFF), 0);
  for (size_t i = 0; i < data.size(); ++i) {
    PushWriteByte(data[i], interbyte_gap_ticks_);
  }
  PushStop();
}

void XilinxIpEngine::SoftReset() {
  steps_.clear();
  step_ = 0;
  hold_left_ = 0;
  ack_failure_ = false;
  read_data_.clear();
  bit_accum_ = 0;
  bits_seen_ = 0;
  payload_bytes_ = 0;
  drive_scl_ = true;
  drive_sda_ = true;
  bus_->SetDriver(driver_id_, true, true);
}

void XilinxIpEngine::Evaluate() {
  drive_scl_ = true;
  drive_sda_ = true;
  if (done()) {
    return;
  }
  const Step& step = steps_[step_];
  if (hold_left_ == 0) {
    hold_left_ = half_cycle_ticks_ + step.extra_hold;
  }
  drive_scl_ = step.scl;
  drive_sda_ = step.sda;
  --hold_left_;
  if (hold_left_ == 0) {
    // End of the half cycle: sample if requested.
    if (step.sample_bit) {
      bit_accum_ = (bit_accum_ << 1) | (bus_->sda() ? 1 : 0);
      ++bits_seen_;
      if (bits_seen_ == 8) {
        read_data_.push_back(static_cast<uint8_t>(bit_accum_));
        bit_accum_ = 0;
        bits_seen_ = 0;
      }
    }
    if (step.sample_ack && bus_->sda()) {
      ack_failure_ = true;
      step_ = steps_.size();  // abort
      return;
    }
    ++step_;
  }
}

uint64_t XilinxIpEngine::IdleCycles() const {
  if (done()) {
    return drive_scl_ && drive_sda_ ? rtl::kIdleForever : 0;
  }
  // A step's first edge loads the hold and drives the step's levels, and
  // its last samples: the edges between only count down.
  return hold_left_ > 1 ? static_cast<uint64_t>(hold_left_ - 1) : 0;
}

void XilinxIpEngine::AdvanceIdle(uint64_t edges) {
  if (!done()) {
    hold_left_ -= static_cast<int>(edges);
  }
}

void XilinxIpEngine::Commit() { bus_->SetDriver(driver_id_, drive_scl_, drive_sda_); }

}  // namespace efeu::sim
