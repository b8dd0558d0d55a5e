#include "src/sim/eeprom.h"

namespace efeu::sim {

Eeprom24aa512::Eeprom24aa512(I2cBus* bus, const EepromConfig& config)
    : bus_(bus), driver_id_(bus->AddDriver()), config_(config) {
  memory_.assign(static_cast<size_t>(config.memory_bytes), 0);
}

void Eeprom24aa512::OnStart() {
  // A (repeated) START aborts an uncommitted write: the datasheet commits
  // page data only on a STOP, anything else discards the buffer.
  pending_write_.clear();
  mode_ = Mode::kReceiveByte;
  addressed_phase_ = true;
  bit_count_ = 0;
  shift_ = 0;
  next_drive_sda_ = true;
  ++starts_seen_;
}

void Eeprom24aa512::OnStop() {
  if (writing_ && !pending_write_.empty()) {
    // The STOP latches the page buffer and starts the internal write cycle,
    // during which the device stops acknowledging.
    for (const auto& [address, value] : pending_write_) {
      memory_[static_cast<size_t>(address)] = value;
      ++bytes_written_;
    }
    busy_ticks_left_ = static_cast<int64_t>(config_.write_cycle_ns / config_.clock_ns);
  }
  pending_write_.clear();
  writing_ = false;
  mode_ = Mode::kIdle;
  next_drive_sda_ = true;
}

void Eeprom24aa512::LoadSendByte() {
  send_byte_ = memory_[static_cast<size_t>(pointer_)];
  pointer_ = (pointer_ + 1) % config_.memory_bytes;
  send_bit_index_ = 0;
  ++bytes_read_;
}

void Eeprom24aa512::AdvancePointerAfterWrite() {
  // Page writes wrap within the current page, as on the real device.
  int page_mask = config_.page_bytes - 1;
  pointer_ = (pointer_ & ~page_mask) | ((pointer_ + 1) & page_mask);
}

void Eeprom24aa512::HandleReceivedByte() {
  if (addressed_phase_) {
    int addr7 = (shift_ >> 1) & 0x7F;
    bool read = (shift_ & 1) != 0;
    addressed_phase_ = false;
    if (busy() || addr7 != config_.address) {
      mode_ = Mode::kIgnore;
      next_drive_sda_ = true;
      return;
    }
    if (forced_busy_addrs_ > 0) {
      // Injected busy burst: behave exactly like the write-cycle window.
      --forced_busy_addrs_;
      mode_ = Mode::kIgnore;
      next_drive_sda_ = true;
      return;
    }
    if (fault_plan_ != nullptr) {
      if (fault_plan_->Consult(FaultKind::kNackOnAddress) > 0) {
        mode_ = Mode::kIgnore;
        next_drive_sda_ = true;
        return;
      }
      if (int duration = fault_plan_->Consult(FaultKind::kDeviceBusy)) {
        forced_busy_addrs_ = duration - 1;
        mode_ = Mode::kIgnore;
        next_drive_sda_ = true;
        return;
      }
    }
    writing_ = !read;
    if (writing_) {
      offset_bytes_seen_ = 0;
    }
    next_drive_sda_ = false;  // ACK
    mode_ = Mode::kAckDrive;
    return;
  }
  // Data byte of a write transfer.
  if (fault_plan_ != nullptr && fault_plan_->Consult(FaultKind::kNackOnData) > 0) {
    // The refused byte is not latched; the controller sees a NACK and will
    // abort the transfer.
    mode_ = Mode::kIgnore;
    next_drive_sda_ = true;
    return;
  }
  if (offset_bytes_seen_ == 0) {
    pointer_ = (shift_ & 0xFF) << 8;
    offset_bytes_seen_ = 1;
  } else if (offset_bytes_seen_ == 1) {
    pointer_ = (pointer_ | (shift_ & 0xFF)) % config_.memory_bytes;
    offset_bytes_seen_ = 2;
  } else {
    pending_write_.emplace_back(pointer_, static_cast<uint8_t>(shift_));
    AdvancePointerAfterWrite();
  }
  next_drive_sda_ = false;  // ACK
  mode_ = Mode::kAckDrive;
}

void Eeprom24aa512::OnRisingEdge(bool sda) {
  switch (mode_) {
    case Mode::kReceiveByte:
      shift_ = ((shift_ << 1) | (sda ? 1 : 0)) & 0x1FF;
      ++bit_count_;
      break;
    case Mode::kAckSample:
      if (!sda) {
        // ACK: the controller wants another byte.
        LoadSendByte();
        mode_ = Mode::kSendBits;
      } else {
        // NACK: transfer over; wait for STOP or a repeated START.
        mode_ = Mode::kIgnore;
        next_drive_sda_ = true;
      }
      break;
    default:
      break;
  }
}

void Eeprom24aa512::OnFallingEdge() {
  switch (mode_) {
    case Mode::kReceiveByte:
      if (bit_count_ == 8) {
        HandleReceivedByte();
      }
      break;
    case Mode::kAckDrive:
      // End of the acknowledgment clock.
      next_drive_sda_ = true;
      if (writing_) {
        mode_ = Mode::kReceiveByte;
        bit_count_ = 0;
        shift_ = 0;
      } else {
        // Read transfer: start clocking data out.
        LoadSendByte();
        mode_ = Mode::kSendBits;
        next_drive_sda_ = ((send_byte_ >> 7) & 1) != 0;
        send_bit_index_ = 1;
      }
      break;
    case Mode::kSendBits:
      if (send_bit_index_ < 8) {
        next_drive_sda_ = ((send_byte_ >> (7 - send_bit_index_)) & 1) != 0;
        ++send_bit_index_;
      } else {
        // Release SDA for the controller's acknowledgment clock.
        next_drive_sda_ = true;
        mode_ = Mode::kAckSample;
      }
      break;
    default:
      break;
  }
}

void Eeprom24aa512::Evaluate() {
  next_drive_sda_ = drive_sda_;
  if (busy_ticks_left_ > 0) {
    --busy_ticks_left_;
  }
  bool scl = bus_->scl();
  bool sda = bus_->sda();
  // START/STOP: SDA transitions while SCL is high.
  if (scl && prev_scl_) {
    if (prev_sda_ && !sda) {
      OnStart();
    } else if (!prev_sda_ && sda) {
      OnStop();
    }
  } else if (!prev_scl_ && scl) {
    OnRisingEdge(sda);
  } else if (prev_scl_ && !scl) {
    OnFallingEdge();
  }
  prev_scl_ = scl;
  prev_sda_ = sda;
}

uint64_t Eeprom24aa512::IdleCycles() const {
  return bus_->scl() == prev_scl_ && bus_->sda() == prev_sda_ ? rtl::kIdleForever : 0;
}

void Eeprom24aa512::AdvanceIdle(uint64_t edges) {
  busy_ticks_left_ = static_cast<uint64_t>(busy_ticks_left_) > edges
                         ? busy_ticks_left_ - static_cast<int64_t>(edges)
                         : 0;
}

void Eeprom24aa512::Commit() {
  drive_sda_ = next_drive_sda_;
  bus_->SetDriver(driver_id_, /*scl=*/true, drive_sda_);
}

}  // namespace efeu::sim
