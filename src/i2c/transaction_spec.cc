#include "src/i2c/transaction_spec.h"

#include "src/i2c/codes.h"

namespace efeu::i2c {

namespace {

// State layout.
constexpr int kPhase = 0;
constexpr int kAction = 1;
constexpr int kAddr = 2;
constexpr int kLength = 3;
constexpr int kData = 4;  // 16 words
constexpr int kRes = 20;
constexpr int kRLen = 21;
constexpr int kRData = 22;  // 16 words
constexpr int kEventIndex = 38;
constexpr int kActive = 39;  // 0 = none, otherwise device index + 1
constexpr int kTarget = 40;  // device index + 1 for the latched command
constexpr int kFaultsLeft = 41;  // remaining fault budget for this execution
constexpr int kResetsLeft = 42;  // remaining soft-reset budget for this execution
constexpr int kStateWords = 43;

// Phases.
constexpr int32_t kPhaseRecvCmd = 0;
constexpr int32_t kPhaseSendEvent = 1;
constexpr int32_t kPhaseRecvAck = 2;
constexpr int32_t kPhaseReply = 3;
// Nondet branch point before an acknowledged event: choice 0 delivers the
// event; with fault budget left, the next choice spends a fault and the event
// NACKs; with reset budget left, the last choice spends a supervision soft
// reset and the transaction fails mid-flight.
constexpr int32_t kPhaseChooseFault = 4;
// Soft-reset unwinding: deliver the bus-release STOP to the mid-session
// device, then consume its acknowledgment before failing the transaction.
constexpr int32_t kPhaseResetStop = 5;
constexpr int32_t kPhaseResetAck = 6;

}  // namespace

TransactionSpecProcess::TransactionSpecProcess(const esi::ChannelInfo* cmd_channel,
                                               const esi::ChannelInfo* reply_channel,
                                               std::vector<TransactionSpecDevice> devices,
                                               int max_faults, int max_resets)
    : NativeProcess("TransactionSpec"),
      cmd_channel_(cmd_channel),
      reply_channel_(reply_channel),
      devices_(std::move(devices)),
      max_faults_(max_faults),
      max_resets_(max_resets) {
  recv_cmd_ = AddPort(cmd_channel, /*is_send=*/false);
  send_reply_ = AddPort(reply_channel, /*is_send=*/true);
  for (const TransactionSpecDevice& device : devices_) {
    send_ev_.push_back(AddPort(device.to_eep, /*is_send=*/true));
    recv_ack_.push_back(AddPort(device.from_eep, /*is_send=*/false));
  }
  ResizeState(kStateWords);
  Reset();
}

void TransactionSpecProcess::InitState(std::vector<int32_t>& state) {
  std::fill(state.begin(), state.end(), 0);
  state[kFaultsLeft] = max_faults_;
  state[kResetsLeft] = max_resets_;
}

int TransactionSpecProcess::TargetDevice(const std::vector<int32_t>& state) const {
  return state[kTarget] - 1;
}

int32_t TransactionSpecProcess::EventCount(const std::vector<int32_t>& state) const {
  switch (state[kAction]) {
    case kCtActWrite:
    case kCtActRead:
      return state[kTarget] > 0 ? 1 + state[kLength] : 0;
    case kCtActStop:
      return state[kActive] > 0 ? 1 : 0;
    default:
      return 0;
  }
}

std::vector<int32_t> TransactionSpecProcess::EventMessage(
    const std::vector<int32_t>& state) const {
  int32_t i = state[kEventIndex];
  switch (state[kAction]) {
    case kCtActWrite:
      if (i == 0) {
        return {kReEvAddrWrite, 0};
      }
      return {kReEvData, state[kData + (i - 1)]};
    case kCtActRead:
      if (i == 0) {
        return {kReEvAddrRead, 0};
      }
      return {kReEvReadReq, 0};
    default:
      return {kReEvStop, 0};
  }
}

check::NativeProcess::PendingOp TransactionSpecProcess::ComputePending(
    const std::vector<int32_t>& state) const {
  PendingOp op;
  switch (state[kPhase]) {
    case kPhaseRecvCmd:
      op.kind = vm::RunState::kBlockedRecv;
      op.port = recv_cmd_;
      return op;
    case kPhaseSendEvent: {
      int dev = state[kAction] == kCtActStop ? state[kActive] - 1 : TargetDevice(state);
      op.kind = vm::RunState::kBlockedSend;
      op.port = send_ev_[dev];
      op.message = EventMessage(state);
      return op;
    }
    case kPhaseRecvAck: {
      int dev = state[kAction] == kCtActStop ? state[kActive] - 1 : TargetDevice(state);
      op.kind = vm::RunState::kBlockedRecv;
      op.port = recv_ack_[dev];
      return op;
    }
    case kPhaseChooseFault:
      op.kind = vm::RunState::kBlockedNondet;
      op.arity = 1 + (state[kFaultsLeft] > 0 ? 1 : 0) + (state[kResetsLeft] > 0 ? 1 : 0);
      return op;
    case kPhaseResetStop:
      op.kind = vm::RunState::kBlockedSend;
      op.port = send_ev_[state[kActive] - 1];
      op.message = {kReEvStop, 0};
      return op;
    case kPhaseResetAck:
      op.kind = vm::RunState::kBlockedRecv;
      op.port = recv_ack_[state[kActive] - 1];
      return op;
    default: {
      op.kind = vm::RunState::kBlockedSend;
      op.port = send_reply_;
      op.message.reserve(18);
      op.message.push_back(state[kRes]);
      op.message.push_back(state[kRLen]);
      for (int i = 0; i < 16; ++i) {
        op.message.push_back(state[kRData + i]);
      }
      return op;
    }
  }
}

void TransactionSpecProcess::OnRecv(int port, std::span<const int32_t> message,
                                    std::vector<int32_t>& state) {
  if (port == recv_cmd_) {
    // Latch the command: {action, addr, length, data[16]}.
    state[kAction] = message[0];
    state[kAddr] = message[1];
    state[kLength] = message[2];
    for (int i = 0; i < 16; ++i) {
      state[kData + i] = message[3 + i];
    }
    state[kEventIndex] = 0;
    state[kRes] = kCtResOk;
    state[kRLen] = 0;
    for (int i = 0; i < 16; ++i) {
      state[kRData + i] = 0;
    }
    // Resolve the addressed device.
    state[kTarget] = 0;
    for (size_t d = 0; d < devices_.size(); ++d) {
      if (devices_[d].address == state[kAddr]) {
        state[kTarget] = static_cast<int32_t>(d) + 1;
        break;
      }
    }
    if (state[kAction] == kCtActWrite || state[kAction] == kCtActRead) {
      if (state[kTarget] == 0) {
        // Nobody acknowledges the address byte.
        state[kRes] = kCtResNack;
        state[kPhase] = kPhaseReply;
        return;
      }
      state[kActive] = state[kTarget];
      state[kPhase] = state[kFaultsLeft] > 0 || state[kResetsLeft] > 0 ? kPhaseChooseFault
                                                                       : kPhaseSendEvent;
      return;
    }
    if (state[kAction] == kCtActStop && state[kActive] > 0) {
      state[kPhase] = kPhaseSendEvent;
      return;
    }
    // IDLE, or STOP with no active device.
    state[kPhase] = kPhaseReply;
    return;
  }
  // Acknowledgment from a device: {res, rdata}.
  if (state[kPhase] == kPhaseResetAck) {
    // The device has processed the bus-release STOP; the session is over and
    // the failed transaction can be reported.
    state[kActive] = 0;
    state[kPhase] = kPhaseReply;
    return;
  }
  int32_t i = state[kEventIndex];
  if (message[0] == kReResNack) {
    state[kRes] = kCtResNack;
    state[kRLen] = i > 0 ? i - 1 : 0;
    state[kPhase] = kPhaseReply;
    return;
  }
  if (state[kAction] == kCtActRead && i >= 1) {
    state[kRData + (i - 1)] = message[1];
  }
  state[kEventIndex] = i + 1;
  if (state[kEventIndex] >= EventCount(state)) {
    if (state[kAction] == kCtActWrite || state[kAction] == kCtActRead) {
      state[kRLen] = state[kLength];
    }
    if (state[kAction] == kCtActStop) {
      state[kActive] = 0;
    }
    state[kPhase] = kPhaseReply;
  } else {
    state[kPhase] = state[kFaultsLeft] > 0 || state[kResetsLeft] > 0 ? kPhaseChooseFault
                                                                     : kPhaseSendEvent;
  }
}

void TransactionSpecProcess::OnChoice(int32_t choice, std::vector<int32_t>& state) {
  assert(state[kPhase] == kPhaseChooseFault);
  if (choice == 0) {
    state[kPhase] = kPhaseSendEvent;
    return;
  }
  int32_t i = state[kEventIndex];
  if (choice == 1 && state[kFaultsLeft] > 0) {
    // Spend a fault: event kEventIndex never reaches the device and the
    // controller observes NACK. kRLen reflects the payload bytes that did
    // complete (the address byte is event 0).
    state[kFaultsLeft] -= 1;
    state[kRes] = kCtResNack;
    state[kRLen] = i > 0 ? i - 1 : 0;
    if (i == 0) {
      // Address byte faulted: the device never joined the session, so a
      // following STOP has nothing to deliver.
      state[kActive] = 0;
    }
    state[kPhase] = kPhaseReply;
    return;
  }
  // Spend a supervision soft reset: the watchdog (or software) pulses the
  // stack-wide reset mid-transaction. Every layer FSM returns to its initial
  // state, the released bus reads as a STOP condition to the mid-session
  // device, and the controller observes CT_RES_FAIL for the aborted
  // transaction.
  state[kResetsLeft] -= 1;
  state[kRes] = kCtResFail;
  state[kRLen] = i > 0 ? i - 1 : 0;
  if (i == 0) {
    // Reset before the address byte: the device never joined the session, so
    // there is no STOP to deliver and nothing to unwind.
    state[kActive] = 0;
    state[kPhase] = kPhaseReply;
    return;
  }
  state[kPhase] = kPhaseResetStop;
}

void TransactionSpecProcess::OnSendComplete(int port, std::vector<int32_t>& state) {
  if (port == send_reply_) {
    state[kPhase] = kPhaseRecvCmd;
    return;
  }
  state[kPhase] = state[kPhase] == kPhaseResetStop ? kPhaseResetAck : kPhaseRecvAck;
}

bool TransactionSpecProcess::AtValidEndState() const {
  return current_state()[kPhase] == kPhaseRecvCmd;
}

}  // namespace efeu::i2c
