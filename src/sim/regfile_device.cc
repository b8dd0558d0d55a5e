#include "src/sim/regfile_device.h"

#include <algorithm>

namespace efeu::sim {

MfdRegFileDevice::MfdRegFileDevice(I2cBus* bus, const MfdConfig& config)
    : bus_(bus), config_(config), driver_id_(bus->AddDriver()) {
  // One bank per cell plus the chip-level bank, rounded up to a power of two
  // so the pointer wraps with a mask like the EEPROM's address counter.
  size_t banks = config_.cells.size() + 1;
  size_t size = 16;
  while (size < banks * kMfdCellStride) {
    size *= 2;
  }
  regs_.assign(size, 0);
  regs_[kMfdRegId] =
      static_cast<uint16_t>(0xEF00 | (config_.cells.size() & 0xFF));
  counter_prescale_left_.assign(config_.cells.size(), 0);
  stat_busy_left_.assign(config_.cells.size(), 0);
  stat_rng_ = config_.stat_seed != 0 ? config_.stat_seed : 0x5eed;
}

uint16_t MfdRegFileDevice::NextStatValue() {
  uint64_t x = stat_rng_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  stat_rng_ = x;
  return static_cast<uint16_t>(x & 0xFFFF);
}

void MfdRegFileDevice::RaiseIrq(int cell) {
  regs_[kMfdRegIrqStatus] |= static_cast<uint16_t>(1 << cell);
  ++irqs_raised_;
}

void MfdRegFileDevice::WriteRegister(int index, uint16_t value) {
  ++register_writes_;
  if (index == kMfdRegIrqStatus) {
    // Write-1-to-clear, the leicaefi IRQ-chip ack convention.
    regs_[kMfdRegIrqStatus] &= static_cast<uint16_t>(~value);
    return;
  }
  if (index == kMfdRegIrqEnable) {
    regs_[kMfdRegIrqEnable] = value;
    return;
  }
  if (index == kMfdRegId) {
    return;  // chip ID is read-only
  }
  int cell = index / kMfdCellStride - 1;
  int field = index % kMfdCellStride;
  if (cell < 0 || cell >= num_cells()) {
    // The gap between the chip bank and the cell banks (and anything past
    // the last cell) is plain scratch storage: no side effects, reads give
    // back the last write.
    regs_[static_cast<size_t>(Wrap(index))] = value;
    return;
  }
  int base = (cell + 1) * kMfdCellStride;
  switch (config_.cells[static_cast<size_t>(cell)]) {
    case MfdCellKind::kGpio:
      if (field == 0) {
        bool changed = regs_[base] != value;
        regs_[base] = value;
        regs_[base + 1] = value;  // loopback: IN mirrors OUT
        if (changed) {
          RaiseIrq(cell);
        }
      }
      break;
    case MfdCellKind::kCounter:
      if (field == 0) {
        regs_[base] = value;
        regs_[base + 1] = value;  // COUNT loads from CTRL
        counter_prescale_left_[static_cast<size_t>(cell)] =
            value > 0 ? config_.counter_prescale_ticks : 0;
      }
      break;
    case MfdCellKind::kStat:
      if (field == 0) {
        stat_busy_left_[static_cast<size_t>(cell)] = config_.stat_busy_ticks;
        regs_[base + 2] |= 1;  // busy
      }
      break;
  }
}

void MfdRegFileDevice::TickCells() {
  for (int cell = 0; cell < num_cells(); ++cell) {
    int base = (cell + 1) * kMfdCellStride;
    switch (config_.cells[static_cast<size_t>(cell)]) {
      case MfdCellKind::kCounter:
        if (regs_[base + 1] > 0 &&
            --counter_prescale_left_[static_cast<size_t>(cell)] <= 0) {
          counter_prescale_left_[static_cast<size_t>(cell)] =
              config_.counter_prescale_ticks;
          if (--regs_[base + 1] == 0) {
            RaiseIrq(cell);  // one-shot rollover
          }
        }
        break;
      case MfdCellKind::kStat:
        if (stat_busy_left_[static_cast<size_t>(cell)] > 0 &&
            --stat_busy_left_[static_cast<size_t>(cell)] == 0) {
          regs_[base + 1] = NextStatValue();
          regs_[base + 2] = static_cast<uint16_t>(regs_[base + 2] & ~1);
          RaiseIrq(cell);
        }
        break;
      case MfdCellKind::kGpio:
        break;
    }
  }
}

void MfdRegFileDevice::OnStart() {
  mode_ = Mode::kReceiveByte;
  addressed_phase_ = true;
  bit_count_ = 0;
  shift_ = 0;
  have_hi_ = false;
  send_hi_next_ = true;
  next_drive_sda_ = true;
}

void MfdRegFileDevice::OnStop() {
  mode_ = Mode::kIdle;
  writing_ = false;
  have_hi_ = false;
  next_drive_sda_ = true;
}

void MfdRegFileDevice::LoadSendByte() {
  if (send_hi_next_) {
    ++register_reads_;
    send_byte_ = (regs_[Wrap(pointer_)] >> 8) & 0xFF;
    send_hi_next_ = false;
  } else {
    send_byte_ = regs_[Wrap(pointer_)] & 0xFF;
    send_hi_next_ = true;
    pointer_ = Wrap(pointer_ + 1);
  }
  send_bit_index_ = 0;
}

void MfdRegFileDevice::HandleReceivedByte() {
  if (addressed_phase_) {
    int addr7 = (shift_ >> 1) & 0x7F;
    bool read = (shift_ & 1) != 0;
    addressed_phase_ = false;
    if (addr7 != config_.address) {
      mode_ = Mode::kIgnore;
      next_drive_sda_ = true;
      return;
    }
    if (fault_plan_ != nullptr &&
        fault_plan_->Consult(FaultKind::kNackOnAddress) > 0) {
      mode_ = Mode::kIgnore;
      next_drive_sda_ = true;
      return;
    }
    writing_ = !read;
    if (writing_) {
      offset_bytes_seen_ = 0;
    }
    next_drive_sda_ = false;  // ACK
    mode_ = Mode::kAckDrive;
    return;
  }
  if (fault_plan_ != nullptr && fault_plan_->Consult(FaultKind::kNackOnData) > 0) {
    mode_ = Mode::kIgnore;
    next_drive_sda_ = true;
    return;
  }
  if (offset_bytes_seen_ == 0) {
    pointer_ = (shift_ & 0xFF) << 8;
    offset_bytes_seen_ = 1;
  } else if (offset_bytes_seen_ == 1) {
    pointer_ = Wrap(pointer_ | (shift_ & 0xFF));
    offset_bytes_seen_ = 2;
    have_hi_ = false;
  } else if (!have_hi_) {
    hi_byte_ = static_cast<uint8_t>(shift_);
    have_hi_ = true;
  } else {
    // Completed 16-bit pair: registers commit immediately (SMBus-word
    // style), unlike the EEPROM's page buffer -- W1C acks and cell pokes
    // must not wait for the STOP.
    WriteRegister(Wrap(pointer_),
                  static_cast<uint16_t>((hi_byte_ << 8) | (shift_ & 0xFF)));
    pointer_ = Wrap(pointer_ + 1);
    have_hi_ = false;
  }
  next_drive_sda_ = false;  // ACK
  mode_ = Mode::kAckDrive;
}

void MfdRegFileDevice::OnRisingEdge(bool sda) {
  switch (mode_) {
    case Mode::kReceiveByte:
      shift_ = ((shift_ << 1) | (sda ? 1 : 0)) & 0x1FF;
      ++bit_count_;
      break;
    case Mode::kAckSample:
      if (!sda) {
        LoadSendByte();
        mode_ = Mode::kSendBits;
      } else {
        mode_ = Mode::kIgnore;
        next_drive_sda_ = true;
      }
      break;
    default:
      break;
  }
}

void MfdRegFileDevice::OnFallingEdge() {
  switch (mode_) {
    case Mode::kReceiveByte:
      if (bit_count_ == 8) {
        HandleReceivedByte();
      }
      break;
    case Mode::kAckDrive:
      next_drive_sda_ = true;
      if (writing_) {
        mode_ = Mode::kReceiveByte;
        bit_count_ = 0;
        shift_ = 0;
      } else {
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
        next_drive_sda_ = true;
        mode_ = Mode::kAckSample;
      }
      break;
    default:
      break;
  }
}

void MfdRegFileDevice::Evaluate() {
  next_drive_sda_ = drive_sda_;
  TickCells();
  bool scl = bus_->scl();
  bool sda = bus_->sda();
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

uint64_t MfdRegFileDevice::IdleCycles() const {
  if (bus_->scl() != prev_scl_ || bus_->sda() != prev_sda_) {
    return 0;
  }
  // Edges until TickCells() next touches a register: each running
  // countdown's last edge does.
  uint64_t idle = rtl::kIdleForever;
  for (int cell = 0; cell < num_cells(); ++cell) {
    const size_t index = static_cast<size_t>(cell);
    int left = 0;
    switch (config_.cells[index]) {
      case MfdCellKind::kCounter:
        if (regs_[static_cast<size_t>((cell + 1) * kMfdCellStride + 1)] == 0) {
          continue;
        }
        left = counter_prescale_left_[index];
        break;
      case MfdCellKind::kStat:
        if (stat_busy_left_[index] <= 0) {
          continue;
        }
        left = stat_busy_left_[index];
        break;
      case MfdCellKind::kGpio:
        continue;
    }
    idle = std::min(idle, left > 1 ? static_cast<uint64_t>(left - 1) : 0);
  }
  return idle;
}

void MfdRegFileDevice::AdvanceIdle(uint64_t edges) {
  const int step = static_cast<int>(edges);
  for (int cell = 0; cell < num_cells(); ++cell) {
    const size_t index = static_cast<size_t>(cell);
    switch (config_.cells[index]) {
      case MfdCellKind::kCounter:
        if (regs_[static_cast<size_t>((cell + 1) * kMfdCellStride + 1)] > 0) {
          counter_prescale_left_[index] -= step;
        }
        break;
      case MfdCellKind::kStat:
        if (stat_busy_left_[index] > 0) {
          stat_busy_left_[index] -= step;
        }
        break;
      case MfdCellKind::kGpio:
        break;
    }
  }
}

void MfdRegFileDevice::Commit() {
  drive_sda_ = next_drive_sda_;
  bus_->SetDriver(driver_id_, /*scl=*/true, drive_sda_);
}

}  // namespace efeu::sim
