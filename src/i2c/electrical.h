// The Electrical layer as a native model-checked process: per bus half cycle
// it collects the (SCL, SDA) drive levels of every Symbol layer, combines
// them with the wired-AND pull-down semantics of the open-drain bus (paper
// section 2.3), and returns the resulting bus levels to every device. Being
// native lets it take any number of responder connections — the per-instance
// channels may even come from different compilations (one per EEPROM bus
// address).

#ifndef SRC_I2C_ELECTRICAL_H_
#define SRC_I2C_ELECTRICAL_H_

#include <vector>

#include "src/check/native_process.h"
#include "src/esi/system_info.h"

namespace efeu::i2c {

struct ElectricalEndpoint {
  // Channel carrying levels from the device's Symbol layer to Electrical.
  const esi::ChannelInfo* from_symbol = nullptr;
  // Channel carrying combined levels back to the Symbol layer.
  const esi::ChannelInfo* to_symbol = nullptr;
};

class ElectricalProcess : public check::NativeProcess {
 public:
  // `controller` first, then any number of responders. The per-round
  // receive order is responders first, controller last, so that the system
  // quiesces with every responder parked waiting for bus levels and the
  // Electrical layer waiting for the controller (the valid end state).
  ElectricalProcess(ElectricalEndpoint controller, std::vector<ElectricalEndpoint> responders);

  bool AtValidEndState() const override;

 protected:
  void InitState(std::vector<int32_t>& state) override;
  PendingOp ComputePending(const std::vector<int32_t>& state) const override;
  void OnRecv(int port, std::span<const int32_t> message,
              std::vector<int32_t>& state) override;
  void OnSendComplete(int port, std::vector<int32_t>& state) override;

 private:
  // State layout: [phase, c_scl, c_sda, r0_scl, r0_sda, r1_scl, ...].
  // Phases: 0..K-1 recv responder i; K recv controller; K+1 send controller;
  // K+2+i send responder i; wraps to 0.
  int num_responders_ = 0;
  // Port ids.
  std::vector<int> recv_resp_;
  int recv_ctrl_ = -1;
  int send_ctrl_ = -1;
  std::vector<int> send_resp_;
};

}  // namespace efeu::i2c

#endif  // SRC_I2C_ELECTRICAL_H_
