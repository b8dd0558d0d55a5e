#include "src/vm/executor.h"

#include <cassert>

#include "src/ir/opcode_info.h"

namespace efeu::vm {

IrExecutor::IrExecutor(const ir::Module* module) : module_(module) { Reset(); }

void IrExecutor::Reset() {
  // Frames start zeroed, matching Promela's zero-initialized variables; the
  // generated C initializes locals to zero for the same semantics.
  frame_.assign(module_->frame_size, 0);
  block_ = 0;
  inst_index_ = 0;
  state_ = RunState::kRunnable;
  error_.clear();
  steps_ = 0;
  progress_seen_ = false;
}

void IrExecutor::Fail(RunState state, std::string message) {
  state_ = state;
  error_ = std::move(message);
}

void IrExecutor::FailDivZero(const ir::Inst& inst) {
  Fail(RunState::kRuntimeError,
       module_->layer_name + ": division by zero at " + inst.loc.ToString());
}

void IrExecutor::FailOutOfBounds(const ir::Inst& inst, int32_t index) {
  Fail(RunState::kRuntimeError, module_->layer_name + ": array index " +
                                    std::to_string(index) + " out of bounds at " +
                                    inst.loc.ToString());
}

void IrExecutor::FailAssert(const ir::Inst& inst) {
  Fail(RunState::kAssertFailed,
       module_->layer_name + ": assertion failed at " + inst.loc.ToString());
}

void IrExecutor::AdvancePastCurrent() {
  ++inst_index_;
  // Blocking instructions are never terminators, so the block still has
  // instructions left.
  assert(inst_index_ < static_cast<int>(module_->blocks[block_].insts.size()));
}

bool IrExecutor::Step() {
  const ir::Inst& inst = CurrentInst();
  ++steps_;
  switch (inst.op) {
    case ir::Opcode::kConst:
      frame_[inst.dst] = inst.type.Truncate(inst.imm);
      break;
    case ir::Opcode::kCopy:
      frame_[inst.dst] = inst.type.Truncate(frame_[inst.a]);
      break;
    case ir::Opcode::kUnOp:
      frame_[inst.dst] = ir::EvalUnOp(inst.unop, frame_[inst.a]);
      break;
    case ir::Opcode::kBinOp: {
      int32_t result = 0;
      if (!ir::EvalBinOp(inst.binop, frame_[inst.a], frame_[inst.b], &result)) {
        FailDivZero(inst);
        return false;
      }
      frame_[inst.dst] = result;
      break;
    }
    case ir::Opcode::kLoadIdx: {
      int32_t index = frame_[inst.b];
      if (index < 0 || index >= inst.imm) {
        FailOutOfBounds(inst, index);
        return false;
      }
      frame_[inst.dst] = inst.type.Truncate(frame_[inst.a + index]);
      break;
    }
    case ir::Opcode::kStoreIdx: {
      int32_t index = frame_[inst.b];
      if (index < 0 || index >= inst.imm) {
        FailOutOfBounds(inst, index);
        return false;
      }
      frame_[inst.dst + index] = inst.type.Truncate(frame_[inst.a]);
      break;
    }
    case ir::Opcode::kSend:
      state_ = RunState::kBlockedSend;
      return false;
    case ir::Opcode::kRecv:
      state_ = RunState::kBlockedRecv;
      return false;
    case ir::Opcode::kNondet:
      state_ = RunState::kBlockedNondet;
      return false;
    case ir::Opcode::kAssert:
      if (frame_[inst.a] == 0) {
        FailAssert(inst);
        return false;
      }
      break;
    case ir::Opcode::kJump:
      block_ = inst.target;
      inst_index_ = 0;
      if (module_->blocks[block_].is_progress_label) {
        progress_seen_ = true;
      }
      return true;
    case ir::Opcode::kBranch:
      block_ = frame_[inst.a] != 0 ? inst.target : inst.target2;
      inst_index_ = 0;
      if (module_->blocks[block_].is_progress_label) {
        progress_seen_ = true;
      }
      return true;
    case ir::Opcode::kHalt:
      state_ = RunState::kHalted;
      return false;
  }
  ++inst_index_;
  return true;
}

RunState IrExecutor::Run(uint64_t max_steps) {
  if (state_ != RunState::kRunnable) {
    return state_;
  }
  uint64_t executed = 0;
  while (Step()) {
    if (max_steps != 0 && ++executed >= max_steps) {
      break;
    }
  }
  return state_;
}

int IrExecutor::blocked_port() const {
  assert(state_ == RunState::kBlockedSend || state_ == RunState::kBlockedRecv);
  return CurrentInst().port;
}

std::span<const int32_t> IrExecutor::pending_message() const {
  assert(state_ == RunState::kBlockedSend);
  const ir::Inst& inst = CurrentInst();
  return std::span<const int32_t>(frame_).subspan(inst.a, inst.count);
}

int IrExecutor::nondet_arity() const {
  assert(state_ == RunState::kBlockedNondet);
  return CurrentInst().imm;
}

void IrExecutor::CompleteSend() {
  assert(state_ == RunState::kBlockedSend);
  ++steps_;
  AdvancePastCurrent();
  state_ = RunState::kRunnable;
}

void IrExecutor::CompleteRecv(std::span<const int32_t> message) {
  assert(state_ == RunState::kBlockedRecv);
  const ir::Inst& inst = CurrentInst();
  assert(static_cast<int>(message.size()) == inst.count);
  for (int i = 0; i < inst.count; ++i) {
    frame_[inst.dst + i] = message[i];
  }
  ++steps_;
  AdvancePastCurrent();
  state_ = RunState::kRunnable;
}

void IrExecutor::CompleteNondet(int32_t choice) {
  assert(state_ == RunState::kBlockedNondet);
  const ir::Inst& inst = CurrentInst();
  assert(choice >= 0 && choice < inst.imm);
  frame_[inst.dst] = choice;
  ++steps_;
  AdvancePastCurrent();
  state_ = RunState::kRunnable;
}

bool IrExecutor::AtValidEndState() const {
  if (state_ == RunState::kHalted) {
    return true;
  }
  if (state_ == RunState::kBlockedRecv) {
    return module_->blocks[block_].is_end_label;
  }
  return false;
}

void IrExecutor::Snapshot(std::span<int32_t> out) const {
  assert(static_cast<int>(out.size()) == SnapshotSize());
  out[0] = block_;
  out[1] = inst_index_;
  out[2] = static_cast<int32_t>(state_);
  std::copy(frame_.begin(), frame_.end(), out.begin() + 3);
  // Canonicalize temps: dead at every blocking point by construction.
  for (const ir::SlotInfo& slot : module_->slots) {
    if (slot.slot_class == ir::SlotClass::kTemp) {
      for (int i = 0; i < slot.size; ++i) {
        out[3 + slot.offset + i] = 0;
      }
    }
  }
}

void IrExecutor::Restore(std::span<const int32_t> in) {
  assert(static_cast<int>(in.size()) == SnapshotSize());
  block_ = in[0];
  inst_index_ = in[1];
  state_ = static_cast<RunState>(in[2]);
  std::copy(in.begin() + 3, in.end(), frame_.begin());
  error_.clear();
  progress_seen_ = false;
}

}  // namespace efeu::vm
