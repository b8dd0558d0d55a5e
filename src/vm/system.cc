#include "src/vm/system.h"

#include <cassert>
#include <span>
#include <vector>

#include "src/support/check.h"

namespace efeu::vm {

int System::AddProcess(const ir::Module* module, std::string instance_name) {
  ProcessEntry entry;
  entry.executor = std::make_unique<IrExecutor>(module);
  entry.name = std::move(instance_name);
  entry.links.resize(module->ports.size());
  processes_.push_back(std::move(entry));
  queued_.push_back(0);
  const int id = static_cast<int>(processes_.size()) - 1;
  Enqueue(id);
  return id;
}

void System::Enqueue(int process) {
  if (!queued_[process]) {
    queued_[process] = 1;
    work_.push_back(process);
  }
}

void System::Reset() {
  for (ProcessEntry& entry : processes_) {
    entry.executor->Reset();
  }
  error_.clear();
  for (int p = static_cast<int>(processes_.size()) - 1; p >= 0; --p) {
    Enqueue(p);
  }
}

void System::Connect(PortRef sender, PortRef receiver) {
  const ir::Module& send_module = processes_[sender.process].executor->module();
  const ir::Module& recv_module = processes_[receiver.process].executor->module();
  EFEU_CHECK(sender.port >= 0 && sender.port < static_cast<int>(send_module.ports.size()) &&
                 receiver.port >= 0 &&
                 receiver.port < static_cast<int>(recv_module.ports.size()),
             "Connect: port id out of range (channel not used by this layer?)");
  const ir::Port& send_port = send_module.ports[sender.port];
  const ir::Port& recv_port = recv_module.ports[receiver.port];
  EFEU_CHECK(send_port.is_send && !recv_port.is_send, "Connect: sender/receiver direction");
  EFEU_CHECK(send_port.channel == recv_port.channel,
             "Connect: ports must carry the same channel");
  EFEU_CHECK(!processes_[sender.process].links[sender.port].has_value() &&
                 !processes_[receiver.process].links[receiver.port].has_value(),
             "Connect: port already connected");
  processes_[sender.process].links[sender.port] = receiver;
  processes_[receiver.process].links[receiver.port] = sender;
  // Both endpoints may already be parked on the newly matching ports.
  Enqueue(sender.process);
  Enqueue(receiver.process);
}

PortRef System::FindPort(int process, const esi::ChannelInfo* channel, bool is_send) const {
  int port = processes_[process].executor->module().FindPort(channel, is_send);
  return PortRef{process, port};
}

void System::Transfer(PortRef sender, PortRef receiver) {
  IrExecutor& send_exec = *processes_[sender.process].executor;
  IrExecutor& recv_exec = *processes_[receiver.process].executor;
  // Zero-copy rendezvous: the receiver copies straight out of the sender's
  // staged frame span. The span stays valid until CompleteSend advances the
  // sender, and the endpoints are distinct executors (a process cannot be
  // blocked on a send and a recv at once), so nothing aliases.
  std::span<const int32_t> message = send_exec.pending_message();
  if (observer_) {
    observer_(sender, receiver, message);
  }
  recv_exec.CompleteRecv(message);
  send_exec.CompleteSend();
}

SystemState System::Run(uint64_t max_transfers) {
  uint64_t transfers = 0;
  // LIFO worklist: a process enters when added or unblocked (by an internal
  // transfer or an external completion between Run() calls). After a
  // rendezvous both endpoints re-enter, so the freshly unblocked receiver
  // runs while its messages are cache-hot. Processes parked on unmatched
  // channels are never revisited: only an event that re-enqueues an endpoint
  // can make a new rendezvous fireable, so draining the list is equivalent to
  // the previous full rescan.
  while (!work_.empty()) {
    const int p = work_.back();
    work_.pop_back();
    queued_[p] = 0;
    ProcessEntry& entry = processes_[p];
    IrExecutor& executor = *entry.executor;
    if (executor.state() == RunState::kRunnable) {
      // A layer that loops forever without communicating is a spec bug;
      // bound the slice so Run() always returns.
      constexpr uint64_t kSliceBudget = 100'000'000;
      executor.Run(kSliceBudget);
      if (executor.state() == RunState::kRunnable) {
        error_ = executor.module().layer_name + ": step budget exceeded (runaway loop?)";
        Enqueue(p);  // So a repeated Run() re-reports the failure.
        return SystemState::kFailed;
      }
    }
    switch (executor.state()) {
      case RunState::kAssertFailed:
      case RunState::kRuntimeError:
        error_ = executor.error();
        Enqueue(p);
        return SystemState::kFailed;
      case RunState::kBlockedNondet:
        error_ = executor.module().layer_name + ": nondet() reached outside the model checker";
        Enqueue(p);
        return SystemState::kFailed;
      case RunState::kBlockedSend:
      case RunState::kBlockedRecv: {
        // Direct peer lookup: this endpoint just blocked; the rendezvous can
        // fire iff the connected peer is already parked on the matching port.
        // If it is not, this process simply leaves the worklist — the peer's
        // own blocking event will find us parked here later.
        const bool is_send = executor.state() == RunState::kBlockedSend;
        const int port = executor.blocked_port();
        const std::optional<PortRef>& link = entry.links[port];
        if (!link.has_value()) {
          break;  // External port; the host exchanges messages directly.
        }
        const IrExecutor& peer = *processes_[link->process].executor;
        const RunState want = is_send ? RunState::kBlockedRecv : RunState::kBlockedSend;
        if (peer.state() != want || peer.blocked_port() != link->port) {
          break;
        }
        const PortRef self{p, port};
        if (is_send) {
          Transfer(self, *link);
        } else {
          Transfer(*link, self);
        }
        Enqueue(link->process);
        Enqueue(p);
        if (max_transfers != 0 && ++transfers >= max_transfers) {
          return SystemState::kRunning;
        }
        break;
      }
      case RunState::kHalted:
      case RunState::kRunnable:
        break;
    }
  }
  // Worklist drained: every process is halted or parked on an unmatched
  // channel, and no transfer can fire.
  return SystemState::kQuiescent;
}

bool System::WantsToSend(PortRef ref) const {
  const IrExecutor& executor = *processes_[ref.process].executor;
  return executor.state() == RunState::kBlockedSend && executor.blocked_port() == ref.port;
}

bool System::WantsToRecv(PortRef ref) const {
  const IrExecutor& executor = *processes_[ref.process].executor;
  return executor.state() == RunState::kBlockedRecv && executor.blocked_port() == ref.port;
}

std::optional<std::vector<int32_t>> System::TakeMessage(PortRef ref) {
  if (!WantsToSend(ref)) {
    return std::nullopt;
  }
  IrExecutor& executor = *processes_[ref.process].executor;
  std::vector<int32_t> message(executor.pending_message().begin(),
                               executor.pending_message().end());
  if (observer_) {
    observer_(ref, kExternalPort, message);
  }
  executor.CompleteSend();
  Enqueue(ref.process);
  return message;
}

bool System::DeliverMessage(PortRef ref, std::span<const int32_t> message) {
  if (!WantsToRecv(ref)) {
    return false;
  }
  if (observer_) {
    observer_(kExternalPort, ref, message);
  }
  processes_[ref.process].executor->CompleteRecv(message);
  Enqueue(ref.process);
  return true;
}

uint64_t System::TotalSteps() const {
  uint64_t total = 0;
  for (const ProcessEntry& entry : processes_) {
    total += entry.executor->steps();
  }
  return total;
}

}  // namespace efeu::vm
