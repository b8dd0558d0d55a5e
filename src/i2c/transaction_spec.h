// The Transaction behaviour specification as a native process: stands in for
// both Transaction layers and everything below when verifying the EepDriver
// layer. Controller transactions map directly onto EEPROM events: a write
// transaction becomes ADDR_WRITE followed by one DATA event per payload byte;
// a read becomes ADDR_READ followed by READ_REQ events; STOP is delivered to
// the addressed device. Native so it can serve any number of EEPROM
// responders (paper section 4.4 scales to three).

#ifndef SRC_I2C_TRANSACTION_SPEC_H_
#define SRC_I2C_TRANSACTION_SPEC_H_

#include <vector>

#include "src/check/native_process.h"
#include "src/esi/system_info.h"

namespace efeu::i2c {

struct TransactionSpecDevice {
  // Channel RTransaction -> REep of this device's compilation.
  const esi::ChannelInfo* to_eep = nullptr;
  // Channel REep -> RTransaction.
  const esi::ChannelInfo* from_eep = nullptr;
  // 7-bit bus address the device answers to.
  int address = 0x50;
};

class TransactionSpecProcess : public check::NativeProcess {
 public:
  // `cmd_channel` is CEepDriver -> CTransaction, `reply_channel` the reverse.
  // With `max_faults` > 0 the spec exposes a nondeterministic choice before
  // every acknowledged bus event (address or data/read byte, not STOP): the
  // checker explores both the fault-free branch and a branch where that event
  // fails with NACK, up to `max_faults` faults per execution. This models the
  // transaction-level effect of every electrical single fault (address NACK,
  // data NACK, ACK glitch) the simulator can inject.
  //
  // With `max_resets` > 0 the same choice point additionally offers a
  // supervision soft reset: the in-flight event is abandoned, the addressed
  // device observes the bus release as a STOP condition, and the controller
  // sees CT_RES_FAIL — the transaction-level shadow of the watchdog/
  // SOFT_RESET pulse returning every layer FSM to its initial state. Proving
  // the usual oracle plus valid end states under this choice is the reset
  // convergence property: after any mid-transaction reset the stack returns
  // to its initial protocol state and later operations still behave.
  TransactionSpecProcess(const esi::ChannelInfo* cmd_channel,
                         const esi::ChannelInfo* reply_channel,
                         std::vector<TransactionSpecDevice> devices, int max_faults = 0,
                         int max_resets = 0);

  bool AtValidEndState() const override;

 protected:
  void InitState(std::vector<int32_t>& state) override;
  PendingOp ComputePending(const std::vector<int32_t>& state) const override;
  void OnRecv(int port, std::span<const int32_t> message,
              std::vector<int32_t>& state) override;
  void OnSendComplete(int port, std::vector<int32_t>& state) override;
  void OnChoice(int32_t choice, std::vector<int32_t>& state) override;

 private:
  // The number of REep events the latched command produces.
  int32_t EventCount(const std::vector<int32_t>& state) const;
  // The event message for event index `i` of the latched command.
  std::vector<int32_t> EventMessage(const std::vector<int32_t>& state) const;
  // Device index targeted by the latched command (or -1).
  int TargetDevice(const std::vector<int32_t>& state) const;

  const esi::ChannelInfo* cmd_channel_ = nullptr;
  const esi::ChannelInfo* reply_channel_ = nullptr;
  std::vector<TransactionSpecDevice> devices_;
  int max_faults_ = 0;
  int max_resets_ = 0;
  int recv_cmd_ = -1;
  int send_reply_ = -1;
  std::vector<int> send_ev_;
  std::vector<int> recv_ack_;
};

}  // namespace efeu::i2c

#endif  // SRC_I2C_TRANSACTION_SPEC_H_
