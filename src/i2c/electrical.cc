#include "src/i2c/electrical.h"

namespace efeu::i2c {

ElectricalProcess::ElectricalProcess(ElectricalEndpoint controller,
                                     std::vector<ElectricalEndpoint> responders)
    : NativeProcess("Electrical"), num_responders_(static_cast<int>(responders.size())) {
  for (const ElectricalEndpoint& endpoint : responders) {
    recv_resp_.push_back(AddPort(endpoint.from_symbol, /*is_send=*/false));
  }
  recv_ctrl_ = AddPort(controller.from_symbol, /*is_send=*/false);
  send_ctrl_ = AddPort(controller.to_symbol, /*is_send=*/true);
  for (const ElectricalEndpoint& endpoint : responders) {
    send_resp_.push_back(AddPort(endpoint.to_symbol, /*is_send=*/true));
  }
  ResizeState(1 + 2 * (1 + responders.size()));
  Reset();
}

void ElectricalProcess::InitState(std::vector<int32_t>& state) {
  std::fill(state.begin(), state.end(), 0);
  // All lines released (pulled up) before the first round.
  for (size_t i = 1; i < state.size(); ++i) {
    state[i] = 1;
  }
}

check::NativeProcess::PendingOp ElectricalProcess::ComputePending(
    const std::vector<int32_t>& state) const {
  int k = num_responders_;
  int phase = state[0];
  PendingOp op;
  if (phase < k) {
    op.kind = vm::RunState::kBlockedRecv;
    op.port = recv_resp_[phase];
    return op;
  }
  if (phase == k) {
    op.kind = vm::RunState::kBlockedRecv;
    op.port = recv_ctrl_;
    return op;
  }
  // Send phases: the combined levels are the wired AND of every device's
  // drive (open-drain with pull-ups: any device can only pull a line low).
  int32_t scl = 1;
  int32_t sda = 1;
  for (int d = 0; d < k + 1; ++d) {
    scl &= state[1 + 2 * d];
    sda &= state[2 + 2 * d];
  }
  op.kind = vm::RunState::kBlockedSend;
  op.message = {scl, sda};
  if (phase == k + 1) {
    op.port = send_ctrl_;
  } else {
    op.port = send_resp_[phase - (k + 2)];
  }
  return op;
}

void ElectricalProcess::OnRecv(int port, std::span<const int32_t> message,
                               std::vector<int32_t>& state) {
  int k = num_responders_;
  int phase = state[0];
  // Controller levels live at state[1..2]; responder i at state[3+2i..4+2i].
  int slot = phase == k ? 1 : 3 + 2 * phase;
  state[slot] = message[0];
  state[slot + 1] = message[1];
  state[0] = phase + 1;
}

void ElectricalProcess::OnSendComplete(int port, std::vector<int32_t>& state) {
  int k = num_responders_;
  int phase = state[0];
  int last_phase = k + 1 + k;  // send to the final responder (or controller if k==0)
  state[0] = phase == last_phase ? 0 : phase + 1;
}

bool ElectricalProcess::AtValidEndState() const {
  // Any receive phase is a valid end: nothing is in flight, and a device
  // stuck mid-symbol is flagged by that device's own (non-end) block. A send
  // phase means combined levels were computed but never delivered.
  return current_state()[0] <= num_responders_;
}

}  // namespace efeu::i2c
