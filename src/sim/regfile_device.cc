#include "src/sim/regfile_device.h"

#include <algorithm>

namespace efeu::sim {

MfdRegFileDevice::MfdRegFileDevice(I2cBus* bus, const MfdConfig& config)
    : bus_(bus), config_(config), driver_id_(bus->AddDriver()), target_(this, config.address) {
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
  have_hi_ = false;
  send_hi_next_ = true;
}

void MfdRegFileDevice::OnStop() { have_hi_ = false; }

uint8_t MfdRegFileDevice::NextReadByte() {
  if (send_hi_next_) {
    send_hi_next_ = false;
    return static_cast<uint8_t>(regs_[Wrap(pointer_)] >> 8);
  }
  const uint8_t lo = static_cast<uint8_t>(regs_[Wrap(pointer_)]);
  send_hi_next_ = true;
  pointer_ = Wrap(pointer_ + 1);
  return lo;
}

bool MfdRegFileDevice::OnAddress(bool read) {
  if (fault_plan_ != nullptr && fault_plan_->Consult(FaultKind::kNackOnAddress) > 0) {
    return false;
  }
  if (!read) {
    offset_bytes_seen_ = 0;
  }
  return true;
}

bool MfdRegFileDevice::OnWriteByte(uint8_t byte) {
  if (fault_plan_ != nullptr && fault_plan_->Consult(FaultKind::kNackOnData) > 0) {
    return false;
  }
  if (offset_bytes_seen_ == 0) {
    pointer_ = byte << 8;
    offset_bytes_seen_ = 1;
  } else if (offset_bytes_seen_ == 1) {
    pointer_ = Wrap(pointer_ | byte);
    offset_bytes_seen_ = 2;
    have_hi_ = false;
  } else if (!have_hi_) {
    hi_byte_ = byte;
    have_hi_ = true;
  } else {
    // Completed 16-bit pair: registers commit immediately (SMBus-word
    // style), unlike the EEPROM's page buffer -- W1C acks and cell pokes
    // must not wait for the STOP.
    WriteRegister(Wrap(pointer_), static_cast<uint16_t>((hi_byte_ << 8) | byte));
    pointer_ = Wrap(pointer_ + 1);
    have_hi_ = false;
  }
  return true;
}

void MfdRegFileDevice::Evaluate() {
  // Cells first: a register a cell changes on this edge is what a byte
  // loaded on it reads.
  TickCells();
  target_.Clock(bus_->scl(), bus_->sda());
}

uint64_t MfdRegFileDevice::IdleCycles() const {
  if (!target_.Settled(bus_->scl(), bus_->sda())) {
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
  bus_->SetDriver(driver_id_, /*scl=*/true, target_.Commit());
}

}  // namespace efeu::sim
