// Explicit-state model checker over a system of processes connected by
// rendezvous channels — the in-process stand-in for running SPIN on the
// generated Promela model. Verifies the same properties the paper checks:
// assertion failures (functional correctness against behaviour
// specifications), invalid end states (deadlock: some process blocked away
// from an end label), and non-progress cycles (livelock).
//
// The search is a depth-first exploration with an exact visited-state set.
// Between transitions every process runs deterministically to its next
// blocking point, so the interleaving alphabet is exactly: one rendezvous
// transfer on some channel, or one nondet() choice — the same granularity
// SPIN sees for the generated model.
//
// One search serves every check, single-threaded; independent verifier
// configs run in parallel on i2c::RunVerificationSuite's pool instead. A
// hash-compaction mode (fingerprint_only) stores 8 bytes per visited state
// instead of the full vector, trading a small false-negative probability for
// memory.

#ifndef SRC_CHECK_CHECKER_H_
#define SRC_CHECK_CHECKER_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/process.h"
#include "src/ir/ir.h"
#include "src/vm/system.h"

namespace efeu::ir {
class Compilation;
}  // namespace efeu::ir

namespace efeu::check {

struct CheckerOptions {
  bool check_deadlock = true;
  // Non-progress-cycle detection: reports a cycle in the state graph that
  // passes no progress-labeled block.
  bool check_livelock = false;
  // 0 = unlimited.
  uint64_t max_states = 0;
  int max_depth = 1 << 20;
  // Ablation: skip the visited-state set (pure tree search). Bound the run
  // with max_transitions when using this.
  bool disable_state_dedup = false;
  // 0 = unlimited.
  uint64_t max_transitions = 0;
  // Ablation knob: store only the 64-bit fingerprint of each visited state
  // ("hash compaction", 8 bytes/state). A fingerprint collision silently
  // prunes an unexplored state, so `ok` carries a small false-negative
  // probability (~states^2 / 2^65); see DESIGN.md.
  bool fingerprint_only = false;
  // Ample-set partial-order reduction: when one process's sole enabled
  // transition is a rendezvous on a channel with exactly one connected
  // sender/receiver pair, and the rendezvous is invisible to the checked
  // properties, explore only that transition. A DFS-stack cycle proviso falls
  // back to the full expansion, so verdicts match the unreduced search. Off
  // switch kept for ablation.
  bool por = true;
  // COLLAPSE-style compressed state storage: visited states become tuples of
  // per-process component ids (see src/check/state_codec.h), with
  // incremental re-snapshot/restore of only the processes a transition
  // moved. Verdicts and stored-state counts are identical either way; off
  // switch kept for ablation. Composes with fingerprint_only (the
  // fingerprint is then taken over the compressed tuple).
  bool collapse = true;
};

enum class ViolationKind {
  kAssertionFailed,
  kRuntimeError,
  kInvalidEndState,
  kNonProgressCycle,
};

struct Violation {
  ViolationKind kind = ViolationKind::kAssertionFailed;
  std::string message;
  // One line per transition from the initial state to the violation.
  std::vector<std::string> trace;
};

struct CheckResult {
  bool ok = false;
  std::optional<Violation> violation;
  uint64_t states_stored = 0;
  uint64_t transitions = 0;
  int max_depth_reached = 0;
  double seconds = 0;
  // True when the search was incomplete: a state/transition budget
  // stopped it mid-exploration, or depth pruning actually skipped an
  // unvisited successor (pruned frames whose successors were all visited do
  // NOT set this). ok is then only "no violation found within budget".
  bool budget_exhausted = false;
  // Bytes of visited-set payload held when the search finished (full state
  // vectors, compressed component-id tuples under `collapse`, or 8-byte
  // fingerprints in fingerprint_only mode).
  uint64_t state_bytes = 0;
  // Bytes of COLLAPSE component-table payload backing the compressed keys
  // (0 without `collapse`). Total checker memory for bytes/state comparisons
  // is state_bytes + component_bytes.
  uint64_t component_bytes = 0;
  // States whose exploration the partial-order reduction elided or reduced:
  // states expanded with a reduced (singleton ample) transition set that
  // never fell back to the full expansion, plus states on forced runs
  // (exactly one enabled transition) that were walked inline without a DFS
  // frame or visited-table entry (see kPorChainSampleMask).
  uint64_t por_reduced_states = 0;
};

// Forced-run ("chain") compression, applied when `por` is on in a safety
// search with state dedup: a state with exactly one enabled transition is
// trivially fully expanded, so it needs no DFS frame, and only a sparse
// sample of run states goes into the visited table — just enough
// that a later path re-entering the run terminates against a stored state.
// A run state is stored iff the hash of its FULL state vector
// (StateCodec::FullStateHash; deliberately not the hash of the COLLAPSE key,
// so collapse on/off store identical sets) has these
// low bits clear; mask 7 stores 1 in 8. Sampled runs keep verdicts exact:
// every run state is still visited and closure-checked, and any cycle
// through a run contains fully expanded states, satisfying the ample-set
// cycle proviso without extra bookkeeping.
inline constexpr uint64_t kPorChainSampleMask = 7;

class CheckedSystem {
 public:
  // Adds a process; returns its id. The system owns the process.
  int AddProcess(std::unique_ptr<Process> process);
  // Convenience: wraps `module` in an IrProcess.
  int AddModule(const ir::Module* module, std::string instance_name);
  // Same, for the module `comp` compiled for `layer`, which must exist.
  int AddLayer(const ir::Compilation& comp, std::string_view layer, std::string instance_name);

  // Connects a send port to the matching receive port (same channel).
  void Connect(vm::PortRef sender, vm::PortRef receiver);

  // Convenience: connects the *first unconnected* matching port pair for
  // `channel` between the two processes (handles native processes with
  // several same-channel ports).
  void ConnectByChannel(int from_process, int to_process, const esi::ChannelInfo* channel);

  // Connects each channel of the interface between layers `upper` and
  // `lower` (both directions) for which both processes expose a matching
  // port, through ConnectByChannel.
  void WireAdjacent(const esi::SystemInfo& info, int upper_process, std::string_view upper,
                    int lower_process, std::string_view lower);

  Process& process(int id) { return *entries_[id].process; }
  const Process& process(int id) const { return *entries_[id].process; }
  int process_count() const { return static_cast<int>(entries_.size()); }
  // Per-process snapshot word counts, in process-id order (the layout of the
  // full state vector RestoreAll takes and the collapse codec keeps).
  std::vector<int> SnapshotSizes() const;

  CheckResult Check(const CheckerOptions& options = {});

  // -- Low-level exploration interface ---------------------------------------
  // Used by the search, the state codec and tests; everything below operates
  // on the live process states.

  struct Transition {
    enum class Kind { kTransfer, kChoice } kind = Kind::kTransfer;
    int process = -1;  // Sender (transfer) or chooser (choice).
    int peer = -1;     // Receiver, for transfers.
    int32_t choice = 0;
    std::string Describe(const CheckedSystem& system) const;
  };

  // One Describe line per transition: a counterexample trace. The search
  // records paths as transitions and renders them only for a violation.
  std::vector<std::string> DescribePath(std::span<const Transition> path) const;

  // Resets every process to its initial state.
  void ResetAll();
  // Restores every process from a full state vector (the processes'
  // snapshots concatenated in process-id order).
  void RestoreAll(const std::vector<int32_t>& state);
  // Runs every runnable process to its next blocking point. Returns false on
  // an assertion failure or runtime error (violation filled in); sets
  // *progress when a progress label was passed.
  bool Closure(Violation* violation, bool* progress);
  std::vector<Transition> EnabledTransitions() const;
  // Same, into `out` (cleared first), so a caller can reuse its capacity.
  void EnabledTransitions(std::vector<Transition>* out) const;
  void Apply(const Transition& t);
  bool AllAtValidEnd() const;
  std::string DescribeBlockedProcesses() const;

  // Ample-set partial-order reduction (see CheckerOptions::por): index into
  // `transitions` of a transition that is safe to explore *alone* at the
  // current state, or -1 when no reduction applies. A transfer qualifies
  // when its channel has exactly one connected sender/receiver pair
  // system-wide (so no third process can interact with it) — both endpoints
  // are committed to the rendezvous and every other enabled transition is
  // independent of it. With `livelock_sensitive`, transfers whose
  // participants might pass a progress label before blocking again are
  // skipped (progress visibility). Callers still owe the cycle proviso: the
  // reduction must be abandoned when the ample edge would close a cycle of
  // reduced states (its successor is on the DFS stack).
  int PickAmple(const std::vector<Transition>& transitions, bool livelock_sensitive) const;

 private:
  struct Entry {
    std::unique_ptr<Process> process;
    std::vector<std::optional<vm::PortRef>> links;
  };

  // True when `t` is a transfer whose channel has exactly one connected link.
  bool TransferOnExclusiveChannel(const Transition& t) const;

  std::vector<Entry> entries_;
  // exclusive_ports_[p][port]: the port's channel has exactly one connected
  // sender/receiver link system-wide. Lazy, for TransferOnExclusiveChannel;
  // rebuilt after any Connect.
  mutable std::vector<std::vector<bool>> exclusive_ports_;
  mutable bool exclusive_ports_ready_ = false;
};

}  // namespace efeu::check

#endif  // SRC_CHECK_CHECKER_H_
