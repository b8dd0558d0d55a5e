// Process adapter over the IR interpreter.

#ifndef SRC_CHECK_IR_PROCESS_H_
#define SRC_CHECK_IR_PROCESS_H_

#include "src/analysis/cfg.h"
#include "src/check/process.h"
#include "src/ir/ir.h"
#include "src/vm/executor.h"

namespace efeu::check {

class IrProcess : public Process {
 public:
  IrProcess(const ir::Module* module, std::string instance_name);

  const std::string& name() const override { return name_; }
  const std::vector<PortDecl>& ports() const override { return ports_; }
  void Reset() override { executor_.Reset(); }
  vm::RunState RunToBlock(std::string* error) override;
  vm::RunState state() const override { return executor_.state(); }
  int blocked_port() const override { return executor_.blocked_port(); }
  std::span<const int32_t> PendingMessage() const override {
    return executor_.pending_message();
  }
  int NondetArity() const override { return executor_.nondet_arity(); }
  NextStepSummary PeekNextStep() const override;
  void CompleteSend() override { executor_.CompleteSend(); }
  void CompleteRecv(std::span<const int32_t> message) override {
    executor_.CompleteRecv(message);
  }
  void CompleteNondet(int32_t choice) override { executor_.CompleteNondet(choice); }
  bool AtValidEndState() const override { return executor_.AtValidEndState(); }
  bool TakeProgressFlag() override;
  int SnapshotSize() const override { return executor_.SnapshotSize(); }
  void Snapshot(std::span<int32_t> out) const override { executor_.Snapshot(out); }
  void Restore(std::span<const int32_t> in) override { executor_.Restore(in); }

  vm::IrExecutor& executor() { return executor_; }

 private:
  // Lazily computed CFG fixpoint for PeekNextStep: what can happen from the
  // entry of each block before the next blocking instruction. Shared with the
  // lint pass; see src/analysis/cfg.h.
  void EnsureBlockSummaries() const;

  vm::IrExecutor executor_;
  std::string name_;
  std::vector<PortDecl> ports_;
  mutable std::vector<analysis::StepSummary> block_entry_summary_;
  mutable bool summaries_ready_ = false;
};

}  // namespace efeu::check

#endif  // SRC_CHECK_IR_PROCESS_H_
