// The process interface the model checker explores. Two implementations
// exist: IrProcess (an ESM layer compiled to IR, the common case) and native
// C++ processes with explicit int32 state (the parameterized Electrical
// combiner and the multi-responder behaviour specifications, which need
// several ports of the same channel type — something a single ESM layer
// cannot express, mirroring how the paper hand-writes this glue in Promela).

#ifndef SRC_CHECK_PROCESS_H_
#define SRC_CHECK_PROCESS_H_

#include <span>
#include <string>
#include <vector>

#include "src/esi/system_info.h"
#include "src/vm/executor.h"

namespace efeu::check {

struct PortDecl {
  const esi::ChannelInfo* channel = nullptr;
  bool is_send = false;
};

// Conservative static summary of what a blocked process may do between
// completing its current blocking operation and reaching its next one. The
// partial-order reduction layer (checker.cc) uses it to decide whether a
// rendezvous is invisible to the checked properties. Every field
// over-approximates: false / a narrow mask is a guarantee, the defaults just
// mean "unknown".
struct NextStepSummary {
  // The process might pass a progress label before blocking again.
  bool may_pass_progress = true;
  // The process might block at a nondet choice next.
  bool may_choose = true;
  // Bit p set: the process might block on port p next (ports >= 64 saturate
  // the whole mask).
  uint64_t port_mask = ~uint64_t{0};
};

class Process {
 public:
  virtual ~Process() = default;

  virtual const std::string& name() const = 0;
  virtual const std::vector<PortDecl>& ports() const = 0;

  virtual void Reset() = 0;

  // Runs deterministically until blocked/halted/failed. Returns the state;
  // on kAssertFailed/kRuntimeError fills *error.
  virtual vm::RunState RunToBlock(std::string* error) = 0;
  virtual vm::RunState state() const = 0;

  // Valid while blocked on a send/recv.
  virtual int blocked_port() const = 0;
  // Valid while blocked on a send. The span borrows the sender's staging
  // buffer: it stays valid until the sender's next state change, so a
  // rendezvous must deliver it to the receiver before CompleteSend().
  virtual std::span<const int32_t> PendingMessage() const = 0;
  // Valid while blocked on a nondet.
  virtual int NondetArity() const = 0;

  // Static lookahead past the current blocking operation (see
  // NextStepSummary). The default is fully conservative, which simply makes
  // the process ineligible for some partial-order reductions.
  virtual NextStepSummary PeekNextStep() const { return {}; }

  virtual void CompleteSend() = 0;
  virtual void CompleteRecv(std::span<const int32_t> message) = 0;
  virtual void CompleteNondet(int32_t choice) = 0;

  virtual bool AtValidEndState() const = 0;
  // Returns whether a progress label was passed since the last call, and
  // clears the flag.
  virtual bool TakeProgressFlag() = 0;

  virtual int SnapshotSize() const = 0;
  virtual void Snapshot(std::span<int32_t> out) const = 0;
  virtual void Restore(std::span<const int32_t> in) = 0;
};

}  // namespace efeu::check

#endif  // SRC_CHECK_PROCESS_H_
