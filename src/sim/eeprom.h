// Behavioural model of the Microchip 24AA512 512-Kbit I2C EEPROM (paper
// section 5): a real bus device reacting to SCL/SDA edges. Implements 7-bit
// addressing, the two-byte data offset, sequential reads with address
// wrap-around, page writes committed on STOP, and the multi-millisecond
// internal write cycle during which the device stops acknowledging.

#ifndef SRC_SIM_EEPROM_H_
#define SRC_SIM_EEPROM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/rtl/component.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/i2c_target.h"

namespace efeu::sim {

struct EepromConfig {
  int address = 0x50;           // 7-bit bus address
  int memory_bytes = 65536;     // 24AA512: 64 KiB
  int page_bytes = 128;
  double write_cycle_ns = 5e6;  // up to 5 ms per datasheet
  double clock_ns = 10;         // simulation tick length
};

class Eeprom24aa512 : public rtl::RtlComponent, private I2cTarget::Hooks {
 public:
  Eeprom24aa512(I2cBus* bus, const EepromConfig& config);

  void Evaluate() override;
  void Commit() override;
  // Idle while the bus levels equal the last ones seen; the write-cycle
  // countdown runs on across skipped edges.
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

  // Device-side fault injection (NACK-on-address, NACK-on-data, busy
  // bursts). Non-owning; nullptr = ideal device.
  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  // Direct memory access for tests and result checking.
  uint8_t MemoryAt(int offset) const { return memory_[offset % memory_.size()]; }
  void Preload(int offset, uint8_t value) { memory_[offset % memory_.size()] = value; }

  bool busy() const { return busy_ticks_left_ > 0; }
  // Protocol statistics.
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t transactions_seen() const { return starts_seen_; }

 private:
  void OnStart() override;
  void OnStop() override;
  bool OnAddress(bool read) override;
  bool OnWriteByte(uint8_t byte) override;
  uint8_t NextReadByte() override;
  void AdvancePointerAfterWrite();

  I2cBus* bus_;
  int driver_id_;
  EepromConfig config_;
  std::vector<uint8_t> memory_;
  I2cTarget target_;

  // Offset pointer handling (two offset bytes, then data).
  int offset_bytes_seen_ = 2;
  int pointer_ = 0;
  // Received write data is buffered and only committed by the STOP that
  // starts the internal write cycle, as on the real part; a transfer aborted
  // by a START (or a STOP the device never saw) is discarded.
  std::vector<std::pair<int, uint8_t>> pending_write_;

  int64_t busy_ticks_left_ = 0;
  // Injected device-busy burst: address bytes left to NACK.
  int forced_busy_addrs_ = 0;
  FaultPlan* fault_plan_ = nullptr;

  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t starts_seen_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_EEPROM_H_
