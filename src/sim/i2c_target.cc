#include "src/sim/i2c_target.h"

namespace efeu::sim {

void I2cTarget::Clock(bool scl, bool sda) {
  next_drive_sda_ = drive_sda_;
  // START/STOP: SDA transitions while SCL is high.
  if (scl && prev_scl_) {
    if (prev_sda_ && !sda) {
      Start();
    } else if (!prev_sda_ && sda) {
      Stop();
    }
  } else if (!prev_scl_ && scl) {
    RisingEdge(sda);
  } else if (prev_scl_ && !scl) {
    FallingEdge();
  }
  prev_scl_ = scl;
  prev_sda_ = sda;
}

void I2cTarget::Start() {
  hooks_->OnStart();
  mode_ = Mode::kReceiveByte;
  address_byte_ = true;
  shift_ = 0;
  bits_ = 0;
  next_drive_sda_ = true;
}

void I2cTarget::Stop() {
  hooks_->OnStop();
  writing_ = false;
  mode_ = Mode::kIdle;
  next_drive_sda_ = true;
}

void I2cTarget::ReceivedByte() {
  bool ack = false;
  if (address_byte_) {
    address_byte_ = false;
    const bool read = (shift_ & 1) != 0;
    ack = (shift_ >> 1) == address_ && hooks_->OnAddress(read);
    if (ack) {
      writing_ = !read;
    }
  } else {
    ack = hooks_->OnWriteByte(shift_);
  }
  // A NACK leaves the device deaf until the next START or STOP.
  mode_ = ack ? Mode::kAckDrive : Mode::kIdle;
  next_drive_sda_ = !ack;
}

void I2cTarget::LoadReadByte() {
  shift_ = hooks_->NextReadByte();
  bits_ = 0;
  mode_ = Mode::kSendBits;
}

void I2cTarget::DriveNextBit() {
  if (bits_ < 8) {
    next_drive_sda_ = (shift_ & 0x80) != 0;
    shift_ = static_cast<uint8_t>(shift_ << 1);
    ++bits_;
  } else {
    // Release SDA for the controller's acknowledgment clock.
    next_drive_sda_ = true;
    mode_ = Mode::kAckSample;
  }
}

void I2cTarget::RisingEdge(bool sda) {
  switch (mode_) {
    case Mode::kReceiveByte:
      shift_ = static_cast<uint8_t>((shift_ << 1) | (sda ? 1 : 0));
      ++bits_;
      break;
    case Mode::kAckSample:
      if (!sda) {
        // ACK: the controller wants another byte.
        LoadReadByte();
      } else {
        // NACK: the transfer is over; wait for STOP or a repeated START.
        mode_ = Mode::kIdle;
        next_drive_sda_ = true;
      }
      break;
    default:
      break;
  }
}

void I2cTarget::FallingEdge() {
  switch (mode_) {
    case Mode::kReceiveByte:
      if (bits_ == 8) {
        ReceivedByte();
      }
      break;
    case Mode::kAckDrive:
      // End of the acknowledgment clock.
      next_drive_sda_ = true;
      if (writing_) {
        mode_ = Mode::kReceiveByte;
        shift_ = 0;
        bits_ = 0;
      } else {
        // Read transfer: start clocking data out.
        LoadReadByte();
        DriveNextBit();
      }
      break;
    case Mode::kSendBits:
      DriveNextBit();
      break;
    default:
      break;
  }
}

}  // namespace efeu::sim
