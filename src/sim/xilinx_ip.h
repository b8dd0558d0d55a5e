// Baseline: a transaction-level hardware I2C controller modeled after the
// Xilinx AXI IIC IP (paper section 5): a bus engine that executes a queued
// EEPROM transaction autonomously at the target bus clock, with short
// per-byte stalls while the driver services the FIFO, and interrupt-driven
// completion.

#ifndef SRC_SIM_XILINX_IP_H_
#define SRC_SIM_XILINX_IP_H_

#include <cstdint>
#include <vector>

#include "src/rtl/component.h"
#include "src/sim/i2c_bus.h"

namespace efeu::sim {

class XilinxIpEngine : public rtl::RtlComponent {
 public:
  XilinxIpEngine(I2cBus* bus, int half_cycle_ticks, int interbyte_gap_ticks);

  // Queues a random read: write the two offset bytes, repeated START, read
  // `length` bytes. The engine runs autonomously; poll done().
  void StartRead(int dev_address, int offset, int length);
  void StartWrite(int dev_address, int offset, const std::vector<uint8_t>& data);

  bool done() const { return step_ >= steps_.size(); }
  bool ack_failure() const { return ack_failure_; }
  const std::vector<uint8_t>& read_data() const { return read_data_; }
  // Data bytes moved (FIFO service interrupts in the driver model).
  int payload_bytes() const { return payload_bytes_; }

  // Soft reset (the AXI IIC SOFTR register): abandons the queued transaction,
  // clears all engine state and releases both bus lines.
  void SoftReset();

  void Evaluate() override;
  void Commit() override;
  // Idle on the edges inside a step's hold, between the edge that loads it
  // and the edge that samples and moves on, and forever once done with both
  // lines released.
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

 private:
  struct Step {
    bool scl = true;
    bool sda = true;
    bool sample_bit = false;  // assemble a read data bit at the end
    bool sample_ack = false;  // check the acknowledgment at the end
    int extra_hold = 0;       // additional ticks (FIFO-service stall)
  };

  void PushBit(bool scl_pair_value);
  void PushWriteByte(uint8_t value, int gap_ticks);
  void PushReadByte(bool last, int gap_ticks);
  void PushStart(bool repeated);
  void PushStop();

  I2cBus* bus_;
  int driver_id_;
  int half_cycle_ticks_;
  int interbyte_gap_ticks_;

  std::vector<Step> steps_;
  size_t step_ = 0;
  int hold_left_ = 0;
  bool ack_failure_ = false;
  int bit_accum_ = 0;
  int bits_seen_ = 0;
  std::vector<uint8_t> read_data_;
  int payload_bytes_ = 0;

  // The bus drive. Evaluate sets it in place and Commit publishes it; only
  // IdleCycles reads it, between edges.
  bool drive_scl_ = true;
  bool drive_sda_ = true;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_XILINX_IP_H_
