#include "src/sim/eeprom.h"

namespace efeu::sim {

Eeprom24aa512::Eeprom24aa512(I2cBus* bus, const EepromConfig& config)
    : bus_(bus), driver_id_(bus->AddDriver()), config_(config), target_(this, config.address) {
  memory_.assign(static_cast<size_t>(config.memory_bytes), 0);
}

void Eeprom24aa512::OnStart() {
  // A (repeated) START aborts an uncommitted write: the datasheet commits
  // page data only on a STOP, anything else discards the buffer.
  pending_write_.clear();
  ++starts_seen_;
}

void Eeprom24aa512::OnStop() {
  if (target_.writing() && !pending_write_.empty()) {
    // The STOP latches the page buffer and starts the internal write cycle,
    // during which the device stops acknowledging.
    for (const auto& [address, value] : pending_write_) {
      memory_[static_cast<size_t>(address)] = value;
      ++bytes_written_;
    }
    busy_ticks_left_ = static_cast<int64_t>(config_.write_cycle_ns / config_.clock_ns);
  }
  pending_write_.clear();
}

uint8_t Eeprom24aa512::NextReadByte() {
  uint8_t byte = memory_[static_cast<size_t>(pointer_)];
  pointer_ = (pointer_ + 1) % config_.memory_bytes;
  ++bytes_read_;
  return byte;
}

void Eeprom24aa512::AdvancePointerAfterWrite() {
  // Page writes wrap within the current page, as on the real device.
  int page_mask = config_.page_bytes - 1;
  pointer_ = (pointer_ & ~page_mask) | ((pointer_ + 1) & page_mask);
}

bool Eeprom24aa512::OnAddress(bool read) {
  // Inside the internal write cycle the device does not acknowledge.
  if (busy()) {
    return false;
  }
  if (forced_busy_addrs_ > 0) {
    // Injected busy burst: behave exactly like the write-cycle window.
    --forced_busy_addrs_;
    return false;
  }
  if (fault_plan_ != nullptr) {
    if (fault_plan_->Consult(FaultKind::kNackOnAddress) > 0) {
      return false;
    }
    if (int duration = fault_plan_->Consult(FaultKind::kDeviceBusy)) {
      forced_busy_addrs_ = duration - 1;
      return false;
    }
  }
  if (!read) {
    offset_bytes_seen_ = 0;
  }
  return true;
}

bool Eeprom24aa512::OnWriteByte(uint8_t byte) {
  if (fault_plan_ != nullptr && fault_plan_->Consult(FaultKind::kNackOnData) > 0) {
    // The refused byte is not latched; the controller sees a NACK and will
    // abort the transfer.
    return false;
  }
  if (offset_bytes_seen_ == 0) {
    pointer_ = byte << 8;
    offset_bytes_seen_ = 1;
  } else if (offset_bytes_seen_ == 1) {
    pointer_ = (pointer_ | byte) % config_.memory_bytes;
    offset_bytes_seen_ = 2;
  } else {
    pending_write_.emplace_back(pointer_, byte);
    AdvancePointerAfterWrite();
  }
  return true;
}

void Eeprom24aa512::Evaluate() {
  // The countdown first: an address byte that completes on this edge sees
  // busy() as of this edge.
  if (busy_ticks_left_ > 0) {
    --busy_ticks_left_;
  }
  target_.Clock(bus_->scl(), bus_->sda());
}

uint64_t Eeprom24aa512::IdleCycles() const {
  return target_.Settled(bus_->scl(), bus_->sda()) ? rtl::kIdleForever : 0;
}

void Eeprom24aa512::AdvanceIdle(uint64_t edges) {
  busy_ticks_left_ = static_cast<uint64_t>(busy_ticks_left_) > edges
                         ? busy_ticks_left_ - static_cast<int64_t>(edges)
                         : 0;
}

void Eeprom24aa512::Commit() {
  bus_->SetDriver(driver_id_, /*scl=*/true, target_.Commit());
}

}  // namespace efeu::sim
