// Behavioural model of a leicaefi/skymaster-style composite I2C peripheral:
// one register window fanned out to multiple function cells behind an
// IRQ-chip pair (STATUS with write-1-to-clear semantics gated by ENABLE).
// Registers are 16 bits wide, addressed by the generated stack's two offset
// bytes (offset = register index); data bytes pair up big-endian and each
// completed pair reads or writes one register with auto-increment, so the
// unmodified EEPROM controller stack drives it.
//
// Register map (kMfdCellStride = 0x10 registers per cell bank):
//   0x0000 ID          RO  0xEF00 | cell count
//   0x0001 IRQ_STATUS  W1C bit c = cell c pending
//   0x0002 IRQ_ENABLE  RW  gates the irq_asserted() line only, never STATUS
//   bank c at 0x10*(c+1), layout by cell kind:
//     kGpio:    +0 OUT RW (latches IN, edge raises IRQ)   +1 IN  RO
//     kCounter: +0 CTRL W (loads one-shot countdown)      +1 COUNT RO
//               rollover to zero raises IRQ
//     kStat:    +0 TRIGGER W (starts a busy window)       +1 VALUE RO
//               +2 STATUS RO bit0 busy; completion seeds VALUE and raises IRQ

#ifndef SRC_SIM_REGFILE_DEVICE_H_
#define SRC_SIM_REGFILE_DEVICE_H_

#include <cstdint>
#include <vector>

#include "src/rtl/component.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/i2c_target.h"

namespace efeu::sim {

inline constexpr int kMfdRegId = 0x0000;
inline constexpr int kMfdRegIrqStatus = 0x0001;
inline constexpr int kMfdRegIrqEnable = 0x0002;
inline constexpr int kMfdCellStride = 0x10;

enum class MfdCellKind {
  kGpio,
  kCounter,
  kStat,
};

struct MfdConfig {
  int address = 0x30;  // 7-bit bus address
  std::vector<MfdCellKind> cells = {MfdCellKind::kGpio, MfdCellKind::kCounter,
                                    MfdCellKind::kStat};
  int counter_prescale_ticks = 64;  // simulation ticks per COUNT decrement
  int stat_busy_ticks = 256;        // TRIGGER-to-done conversion window
  uint64_t stat_seed = 0x5eed;      // xorshift stream behind VALUE
};

class MfdRegFileDevice : public rtl::RtlComponent, private I2cTarget::Hooks {
 public:
  MfdRegFileDevice(I2cBus* bus, const MfdConfig& config);

  void Evaluate() override;
  void Commit() override;
  // Idle while the bus levels equal the last ones seen, up to the next edge
  // on which a cell changes a register (COUNT step, conversion done).
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  // The modeled INT# line: any enabled cell pending.
  bool irq_asserted() const {
    return (regs_[kMfdRegIrqStatus] & regs_[kMfdRegIrqEnable]) != 0;
  }

  // Direct register access for tests (no bus traffic, no side effects).
  uint16_t RegisterAt(int index) const { return regs_[Wrap(index)]; }
  void PokeRegister(int index, uint16_t value) { regs_[Wrap(index)] = value; }
  int num_cells() const { return static_cast<int>(config_.cells.size()); }

  uint64_t irqs_raised() const { return irqs_raised_; }

 private:
  int Wrap(int index) const { return index & (static_cast<int>(regs_.size()) - 1); }
  void OnStart() override;
  void OnStop() override;
  bool OnAddress(bool read) override;
  bool OnWriteByte(uint8_t byte) override;
  uint8_t NextReadByte() override;
  void WriteRegister(int index, uint16_t value);
  void RaiseIrq(int cell);
  uint16_t NextStatValue();
  void TickCells();

  I2cBus* bus_;
  MfdConfig config_;
  int driver_id_;
  std::vector<uint16_t> regs_;
  I2cTarget target_;

  // Transfer pointer: two offset bytes select the register index, then data
  // bytes pair up (hi first). A START/STOP discards a dangling hi byte.
  int offset_bytes_seen_ = 2;
  int pointer_ = 0;
  bool have_hi_ = false;
  uint8_t hi_byte_ = 0;
  bool send_hi_next_ = true;

  // Cell state.
  std::vector<int> counter_prescale_left_;
  std::vector<int> stat_busy_left_;
  uint64_t stat_rng_;

  FaultPlan* fault_plan_ = nullptr;
  uint64_t irqs_raised_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_REGFILE_DEVICE_H_
