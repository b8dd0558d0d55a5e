// A competing bus master for multi-master arbitration faults: watches the
// bus for a START and, when the fault plan says so (kArbitrationLoss), wins
// the arbitration by seizing both lines -- modeling a second controller
// whose own multi-byte burst the generated stack just lost to. While the
// winner holds the bus the stack's transaction stalls (clock stretching from
// its point of view) until its wait deadline wedges it; the release sequence
// raises SCL first and SDA last, a well-formed STOP that returns every
// device FSM on the segment to idle. The driver-side counterpart is
// HybridDriver::WaitBusFree and the Supervisor's arbitration rung.

#ifndef SRC_SIM_SECOND_MASTER_H_
#define SRC_SIM_SECOND_MASTER_H_

#include <cstdint>

#include "src/rtl/component.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"

namespace efeu::sim {

struct SecondMasterConfig {
  double clock_ns = 10;  // simulation tick length
  // Bus occupancy per consult-duration unit: the losing stack's wait
  // deadline (RecoveryPolicy::wait_timeout_ns, 2 ms in the supervised
  // config) must fire inside the first unit so the loss is observed as a
  // wedge, and the total stays well under bus_free_timeout_ns so the
  // arbitration rung always sees the bus come back.
  double hold_ns_per_unit = 2.5e6;
  // SCL-high settle before the SDA release completes the STOP.
  double release_ns = 1250;
};

class SecondMaster : public rtl::RtlComponent {
 public:
  SecondMaster(I2cBus* bus, const SecondMasterConfig& config);

  void Evaluate() override;
  void Commit() override;
  // Idle while the bus levels equal the last ones seen, up to the edge that
  // ends the current hold or release window.
  uint64_t IdleCycles() const override;
  void AdvanceIdle(uint64_t edges) override;

  void SetFaultPlan(FaultPlan* plan) { fault_plan_ = plan; }

  // True while this master owns the bus (the whole hold + release window).
  bool holding() const { return state_ != State::kIdle; }
  uint64_t arbitration_wins() const { return wins_; }
  uint64_t starts_seen() const { return starts_seen_; }

 private:
  enum class State {
    kIdle,          // watching for a START
    kHolding,       // both lines seized; the loser's transaction stalls
    kSclReleased,   // SCL back high, SDA still low: STOP in progress
  };

  I2cBus* bus_;
  SecondMasterConfig config_;
  int driver_id_;

  bool prev_scl_ = true;
  bool prev_sda_ = true;
  State state_ = State::kIdle;
  int64_t ticks_left_ = 0;
  bool next_scl_ = true;
  bool next_sda_ = true;

  FaultPlan* fault_plan_ = nullptr;
  uint64_t wins_ = 0;
  uint64_t starts_seen_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_SECOND_MASTER_H_
