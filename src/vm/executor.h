// The IR interpreter core. One IrExecutor holds the run state of a single
// layer FSM (frame, program counter) and executes instructions until the next
// blocking point (send/recv/nondet), termination, or error. It is driven by
// three different hosts: the software VM scheduler (src/vm/system.h), the
// model checker (src/check), and the hybrid driver runtime (src/driver),
// which also charges per-instruction CPU costs from the step counters.

#ifndef SRC_VM_EXECUTOR_H_
#define SRC_VM_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace efeu::vm {

enum class RunState {
  kRunnable,      // has instructions to execute
  kBlockedSend,   // stopped at a kSend; message staged
  kBlockedRecv,   // stopped at a kRecv; waiting for a message
  kBlockedNondet, // stopped at a kNondet; host must choose
  kHalted,        // executed kHalt (valid end state)
  kAssertFailed,
  kRuntimeError,  // division by zero etc.
};

class IrExecutor {
 public:
  explicit IrExecutor(const ir::Module* module);

  const ir::Module& module() const { return *module_; }
  RunState state() const { return state_; }

  // Executes until the next blocking instruction, halt, or error. At a
  // blocking instruction, execution stops *at* it: the instruction completes
  // only through CompleteSend/CompleteRecv/CompleteNondet. Returns the new
  // state. `max_steps` guards against runaway loops (0 = unlimited).
  RunState Run(uint64_t max_steps = 0);

  // Valid while kBlockedSend/kBlockedRecv: the port the process is blocked on.
  int blocked_port() const;
  // Valid while kBlockedSend: the staged outgoing message.
  std::span<const int32_t> pending_message() const;
  // Valid while kBlockedNondet: the number of choices.
  int nondet_arity() const;

  // Completes the pending send (the host has transferred the message).
  void CompleteSend();
  // Delivers `message` into the pending recv's destination.
  void CompleteRecv(std::span<const int32_t> message);
  // Resolves the pending nondet with `choice` in [0, arity).
  void CompleteNondet(int32_t choice);

  // True if the process, were the system to stop now, is at a valid end
  // state: halted, or blocked at a recv in a block carrying an end label.
  // (Blocked sends and non-end recvs are invalid end states, like Promela.)
  bool AtValidEndState() const;

  // Error message for kAssertFailed/kRuntimeError.
  const std::string& error() const { return error_; }

  // Cumulative executed instruction count (cost accounting).
  uint64_t steps() const { return steps_; }
  void ResetSteps() { steps_ = 0; }

  // Set when control enters a progress-labeled block; used by the model
  // checker's non-progress-cycle detection.
  bool ProgressSeen() const { return progress_seen_; }
  void ClearProgressSeen() { progress_seen_ = false; }

  // -- State snapshot (model checker) ---------------------------------------
  // Serialized form: [block, inst_index, state, frame...]. Temps are zeroed
  // in the snapshot; they are guaranteed dead at blocking points.
  int SnapshotSize() const { return 3 + module_->frame_size; }
  void Snapshot(std::span<int32_t> out) const;
  void Restore(std::span<const int32_t> in);

  // Direct frame access (native harness glue and tests).
  std::span<const int32_t> frame() const { return frame_; }
  std::span<int32_t> mutable_frame() { return frame_; }

  // Program-counter accessors for the model checker's static lookahead
  // (partial-order reduction; src/check/ir_process.cc).
  int current_block() const { return block_; }
  int current_inst_index() const { return inst_index_; }

  void Reset();

 private:
  const ir::Inst& CurrentInst() const { return module_->blocks[block_].insts[inst_index_]; }
  // Executes one non-blocking instruction; advances the pc. Returns false if
  // the machine stopped (blocked/halted/error).
  bool Step();
  void AdvancePastCurrent();
  void Fail(RunState state, std::string message);
  // Failure-message formatters: "<layer>: <what> at <line>:<column>".
  void FailDivZero(const ir::Inst& inst);
  void FailOutOfBounds(const ir::Inst& inst, int32_t index);
  void FailAssert(const ir::Inst& inst);

  const ir::Module* module_;
  std::vector<int32_t> frame_;
  int block_ = 0;
  int inst_index_ = 0;
  RunState state_ = RunState::kRunnable;
  std::string error_;
  uint64_t steps_ = 0;
  bool progress_seen_ = false;
};

}  // namespace efeu::vm

#endif  // SRC_VM_EXECUTOR_H_
