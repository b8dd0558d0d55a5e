// Behavioural model of a TCA9548A-style I2C bus mux: an I2C slave on the
// upstream bus whose control register selects which downstream channels'
// pass gates close. Selected channels are repeated bidirectionally onto the
// upstream bus (open-drain wired-AND both ways, clock stretching included),
// so the controller stack talks through the mux without knowing it exists.
//
// Select protocol (fits the generated stack's write format, which always
// sends two offset bytes): every byte of a write transfer is acknowledged
// and the LAST byte received before the STOP latches as the channel mask, so
// `WriteTo(mux, 0, {mask})` programs the mux and a repeated START discards
// the pending byte, making read-back non-destructive. Read transfers return
// the latched control mask, the driver's verification handle.
//
// Fault hooks (consulted when a STOP applies a select):
//   kMuxStuck    -- the select is acknowledged but neither latch moves for
//                   `duration` applies; read-back exposes the stale mask.
//   kMuxMisroute -- the control latch takes the requested mask (read-back
//                   looks clean) but the pass gates close on the mask rotated
//                   by one channel; only the resulting NACKs expose it.

#ifndef SRC_SIM_MUX_H_
#define SRC_SIM_MUX_H_

#include <cstdint>
#include <vector>

#include "src/rtl/component.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/i2c_target.h"

namespace efeu::sim {

struct MuxConfig {
  int address = 0x70;  // 7-bit bus address of the control register
  int channels = 4;
};

class I2cMux : public rtl::RtlComponent, private I2cTarget::Hooks {
 public:
  // `upstream` carries the controller; `downstream[c]` is channel c's
  // segment. All buses are non-owning.
  I2cMux(I2cBus* upstream, std::vector<I2cBus*> downstream, const MuxConfig& config);

  void Evaluate() override;
  void Commit() override;
  // Idle while the upstream levels equal the last ones seen and the pass
  // gates would forward exactly what they forward now.
  uint64_t IdleCycles() const override;

  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  // The latched control register (what a read-back returns) and the mask the
  // pass gates actually close on; they differ only under kMuxMisroute.
  int control_mask() const { return control_mask_; }
  int routed_mask() const { return routed_mask_; }

  uint64_t selects_applied() const { return selects_applied_; }
  uint64_t selects_stuck() const { return selects_stuck_; }
  uint64_t selects_misrouted() const { return selects_misrouted_; }

 private:
  // Pass-gate drives: the level forwarded onto the upstream segment, and
  // one bit per downstream channel (bit c = the level forwarded onto c).
  struct PassGates {
    bool up_scl = true;
    bool up_sda = true;
    uint32_t down_scl = ~0u;
    uint32_t down_sda = ~0u;

    bool operator==(const PassGates&) const = default;
  };

  // The control register's target hooks (select protocol above).
  void OnStart() override;
  void OnStop() override;
  bool OnAddress(bool read) override { return true; }
  bool OnWriteByte(uint8_t byte) override;
  uint8_t NextReadByte() override { return static_cast<uint8_t>(control_mask_); }
  void ApplySelect(int mask);
  int RotateMask(int mask) const;
  // The drives the gates forward given the current bus levels; allocation-
  // free, shared by Evaluate and IdleCycles.
  PassGates ComputePassGates() const;

  I2cBus* upstream_;
  std::vector<I2cBus*> downstream_;
  MuxConfig config_;
  int upstream_id_;
  std::vector<int> downstream_ids_;

  // Control target, following the upstream segment like any device.
  I2cTarget target_;
  int pending_mask_ = 0;
  bool have_pending_ = false;

  // Select latches.
  int control_mask_ = 0;
  int routed_mask_ = 0;
  int stuck_left_ = 0;

  // Pass-gate drives, staged in Evaluate and published in Commit (between
  // edges: the drives on the buses).
  PassGates gates_;

  FaultPlan* fault_plan_ = nullptr;
  uint64_t selects_applied_ = 0;
  uint64_t selects_stuck_ = 0;
  uint64_t selects_misrouted_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_MUX_H_
