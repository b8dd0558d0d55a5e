#include "src/rtl/regfile.h"

#include <algorithm>
#include <cassert>

namespace efeu::rtl {

void MmioRegfile::SoftReset() {
  std::fill(down_staged_.begin(), down_staged_.end(), 0);
  sw_down_valid_ = false;
  down_out_valid_ = false;
  next_down_out_valid_ = false;
  next_clear_sw_down_ = false;
  std::fill(up_latched_.begin(), up_latched_.end(), 0);
  sw_up_ready_ = false;
  up_out_ready_ = false;
  next_up_out_ready_ = false;
  next_clear_sw_up_ = false;
  next_latch_up_ = false;
  up_full_ = false;
  irq_ = false;
  if (down_wire_ != nullptr) {
    down_wire_->valid = false;
    down_wire_->data = down_staged_;
  }
  down_data_published_ = true;
  if (up_wire_ != nullptr) {
    up_wire_->ready = false;
  }
}

void MmioRegfile::Evaluate() {
  next_down_out_valid_ = down_out_valid_;
  next_clear_sw_down_ = false;
  next_up_out_ready_ = up_out_ready_;
  next_clear_sw_up_ = false;
  next_latch_up_ = false;

  // Down direction: this component is the sender.
  if (down_wire_ != nullptr) {
    if (down_out_valid_ && down_wire_->ready) {
      // Consumed: auto-reset the software's valid flag. With the auto-reset
      // ablated, the flag stays up and the hardware sees the same message
      // again (double delivery).
      if (!disable_auto_reset_) {
        next_down_out_valid_ = false;
        next_clear_sw_down_ = true;
      }
    } else if (sw_down_valid_) {
      next_down_out_valid_ = true;
    }
  }

  // Up direction: this component is the receiver.
  if (up_wire_ != nullptr) {
    if (up_out_ready_ && up_wire_->valid) {
      // One packet landed: auto-reset the software's ready flag so further
      // packets cannot overwrite the data before software reads it.
      next_latch_up_ = true;
      next_up_out_ready_ = false;
      next_clear_sw_up_ = true;
    } else if (sw_up_ready_ && !up_full_) {
      next_up_out_ready_ = true;
    }
  }
}

uint64_t MmioRegfile::IdleCycles() const {
  if (down_wire_ != nullptr) {
    if (down_out_valid_ ? down_wire_->ready : sw_down_valid_) {
      return 0;  // consumed this edge, or a fresh doorbell to publish
    }
    if (!down_data_published_) {
      return 0;
    }
    assert(down_wire_->valid == down_out_valid_ && down_wire_->data == down_staged_);
  }
  if (up_wire_ != nullptr) {
    if (up_out_ready_ ? up_wire_->valid : (sw_up_ready_ && !up_full_)) {
      return 0;  // a packet lands this edge, or a fresh arm to publish
    }
    assert(up_wire_->ready == up_out_ready_);
  }
  return kIdleForever;
}

void MmioRegfile::Commit() {
  if (down_wire_ != nullptr) {
    down_out_valid_ = next_down_out_valid_;
    if (next_clear_sw_down_) {
      sw_down_valid_ = false;
    }
    down_wire_->valid = down_out_valid_;
    if (!down_data_published_) {
      down_wire_->data = down_staged_;
      down_data_published_ = true;
    }
  }
  if (up_wire_ != nullptr) {
    if (next_latch_up_) {
      up_latched_ = up_wire_->data;
      up_full_ = true;
      irq_ = true;
    }
    up_out_ready_ = next_up_out_ready_;
    if (next_clear_sw_up_) {
      sw_up_ready_ = false;
    }
    up_wire_->ready = up_out_ready_;
  }
}

}  // namespace efeu::rtl
