// The software VM: a set of layer FSM instances connected by rendezvous
// channels, executed cooperatively. This implements the semantics of the
// generated C drivers (coroutine switching between layers) for simulation and
// tests. Ports left unconnected are "external": the host (a driver runtime, a
// test, or an example program) exchanges messages with them directly, playing
// the role of the paper's boilerplate glue (lib entry, event loop, scanf/
// printf in Figure 5).

#ifndef SRC_VM_SYSTEM_H_
#define SRC_VM_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/vm/executor.h"

namespace efeu::vm {

struct PortRef {
  int process = -1;
  int port = -1;

  bool operator==(const PortRef& other) const {
    return process == other.process && port == other.port;
  }
};

// The "port" of the host in externally completed exchanges, as reported to
// the transfer observer: DeliverMessage passes it as the sender, TakeMessage
// as the receiver. Observers interested only in internal rendezvous skip
// refs with a negative process id.
inline constexpr PortRef kExternalPort{-1, -1};

enum class SystemState {
  kRunning,     // some process can still make progress
  kQuiescent,   // every process blocked on an unmatched channel (or halted)
  kFailed,      // assertion/runtime error in some process
};

class System {
 public:
  // Adds an instance of `module` (several instances of one module may
  // coexist, e.g. multiple EEPROM responders). Returns the process id.
  int AddProcess(const ir::Module* module, std::string instance_name);

  // Connects a send port to a receive port carrying the same channel.
  // Asserts on mismatched direction or channel identity.
  void Connect(PortRef sender, PortRef receiver);

  int process_count() const { return static_cast<int>(processes_.size()); }
  IrExecutor& executor(int process) { return *processes_[process].executor; }
  const IrExecutor& executor(int process) const { return *processes_[process].executor; }
  const std::string& process_name(int process) const { return processes_[process].name; }

  // Finds the port id of `channel` (in the given direction) on `process`.
  PortRef FindPort(int process, const esi::ChannelInfo* channel, bool is_send) const;

  // Runs processes and transfers messages until quiescent or failed.
  // `max_transfers` bounds rendezvous transfers (0 = unlimited).
  //
  // Scheduling is worklist-driven: a process is (re)considered only when it
  // was just unblocked or freshly added, and a rendezvous completes by direct
  // peer lookup instead of a system-wide rescan, so the per-transfer cost is
  // O(1) in the number of processes. The per-channel message sequences are
  // schedule-independent (the system is a Kahn network: each receive has a
  // unique matching send), so this is observably equivalent to the previous
  // sweep scheduler apart from which failing process is reported first.
  SystemState Run(uint64_t max_transfers = 0);

  // -- External ports --------------------------------------------------------
  // True if `ref`'s process is blocked sending on `ref.port`.
  bool WantsToSend(PortRef ref) const;
  // True if blocked receiving on `ref.port`.
  bool WantsToRecv(PortRef ref) const;
  // Completes a pending external send: copies the message out. Returns
  // nullopt if the process is not blocked sending on this port.
  std::optional<std::vector<int32_t>> TakeMessage(PortRef ref);
  // Completes a pending external recv by delivering `message`. Returns false
  // if the process is not blocked receiving on this port.
  bool DeliverMessage(PortRef ref, std::span<const int32_t> message);

  // Coroutine reinit for the supervision ladder: resets every process to its
  // initial state (frames re-zeroed, pc at block 0) and clears any recorded
  // error. Rendezvous channels hold no buffered data in this VM, so resetting
  // the endpoints also drains every channel. Per-process step counters
  // restart from zero; callers tracking TotalSteps() deltas resynchronize.
  void Reset();

  // Observes every message transfer: the sender/receiver port refs and the
  // transferred message, invoked before the endpoints advance. Internal
  // rendezvous report both real endpoints; externally completed exchanges
  // (DeliverMessage/TakeMessage) report kExternalPort on the host side, so a
  // recorder sees each process's full consumption order in one stream. Used
  // by the differential fuzz harness to compare per-channel message
  // sequences across execution targets.
  using TransferObserver =
      std::function<void(PortRef sender, PortRef receiver, std::span<const int32_t> message)>;
  void SetTransferObserver(TransferObserver observer) { observer_ = std::move(observer); }

  // Total instructions executed across all processes (cost accounting).
  uint64_t TotalSteps() const;

  // First error encountered (valid when Run returned kFailed).
  const std::string& error() const { return error_; }

 private:
  struct ProcessEntry {
    std::unique_ptr<IrExecutor> executor;
    std::string name;
    // For each port: the connected peer, or nullopt for external ports.
    std::vector<std::optional<PortRef>> links;
  };

  // Completes the rendezvous `sender` -> `receiver` (both endpoints must be
  // blocked on the matching ports). The message is delivered zero-copy: the
  // receiver reads the sender's staged frame span directly.
  void Transfer(PortRef sender, PortRef receiver);

  // Marks a process for (re)consideration by the next Run().
  void Enqueue(int process);

  std::vector<ProcessEntry> processes_;
  std::string error_;
  TransferObserver observer_;
  // Persistent worklist. A process enters when added, connected, reset, or
  // externally completed (DeliverMessage/TakeMessage); Run() drains it and a
  // process parked on an unmatched channel stays off the list until one of
  // those events can change its situation. The hybrid driver calls Run() once
  // per boundary pump, so re-seeding the list from all processes every call
  // would dominate the short slices fine splits produce.
  std::vector<int> work_;
  std::vector<char> queued_;
};

}  // namespace efeu::vm

#endif  // SRC_VM_SYSTEM_H_
