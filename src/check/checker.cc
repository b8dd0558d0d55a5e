#include "src/check/checker.h"

#include <bit>
#include <cassert>
#include <chrono>
#include <map>
#include <memory>

#include "src/support/check.h"

#include "src/check/ir_process.h"
#include "src/check/state_codec.h"
#include "src/ir/compile.h"
#include "src/support/hash.h"
#include "src/support/state_table.h"

namespace efeu::check {

std::string CheckedSystem::Transition::Describe(const CheckedSystem& system) const {
  if (kind == Kind::kChoice) {
    return system.entries_[process].process->name() + ": nondet -> " + std::to_string(choice);
  }
  return system.entries_[process].process->name() + " -> " +
         system.entries_[peer].process->name();
}

std::vector<std::string> CheckedSystem::DescribePath(std::span<const Transition> path) const {
  std::vector<std::string> lines;
  lines.reserve(path.size());
  for (const Transition& t : path) {
    lines.push_back(t.Describe(*this));
  }
  return lines;
}

int CheckedSystem::AddProcess(std::unique_ptr<Process> process) {
  Entry entry;
  entry.links.resize(process->ports().size());
  entry.process = std::move(process);
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

int CheckedSystem::AddModule(const ir::Module* module, std::string instance_name) {
  return AddProcess(std::make_unique<IrProcess>(module, std::move(instance_name)));
}

int CheckedSystem::AddLayer(const ir::Compilation& comp, std::string_view layer,
                            std::string instance_name) {
  const ir::Module* module = comp.FindModule(layer);
  EFEU_CHECK(module != nullptr, "AddLayer: layer not defined in this compilation");
  return AddModule(module, std::move(instance_name));
}

void CheckedSystem::Connect(vm::PortRef sender, vm::PortRef receiver) {
  EFEU_CHECK(sender.process >= 0 && sender.process < static_cast<int>(entries_.size()) &&
                 receiver.process >= 0 && receiver.process < static_cast<int>(entries_.size()),
             "Connect: process id out of range");
  EFEU_CHECK(sender.port >= 0 &&
                 sender.port < static_cast<int>(entries_[sender.process].links.size()) &&
                 receiver.port >= 0 &&
                 receiver.port < static_cast<int>(entries_[receiver.process].links.size()),
             "Connect: port id out of range");
  const PortDecl& send_port = entries_[sender.process].process->ports()[sender.port];
  const PortDecl& recv_port = entries_[receiver.process].process->ports()[receiver.port];
  EFEU_CHECK(send_port.is_send && !recv_port.is_send, "Connect: sender/receiver direction");
  EFEU_CHECK(send_port.channel == recv_port.channel,
             "Connect: ports must carry the same channel");
  EFEU_CHECK(!entries_[sender.process].links[sender.port].has_value() &&
                 !entries_[receiver.process].links[receiver.port].has_value(),
             "Connect: port already connected");
  entries_[sender.process].links[sender.port] = receiver;
  entries_[receiver.process].links[receiver.port] = sender;
  exclusive_ports_ready_ = false;
}

void CheckedSystem::ConnectByChannel(int from_process, int to_process,
                                     const esi::ChannelInfo* channel) {
  auto find_free = [&](int process, bool is_send) {
    const Entry& entry = entries_[process];
    const std::vector<PortDecl>& decls = entry.process->ports();
    for (size_t i = 0; i < decls.size(); ++i) {
      if (decls[i].channel == channel && decls[i].is_send == is_send &&
          !entry.links[i].has_value()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int send_port = find_free(from_process, /*is_send=*/true);
  int recv_port = find_free(to_process, /*is_send=*/false);
  EFEU_CHECK(send_port >= 0, "ConnectByChannel: sender has no free port for this channel");
  EFEU_CHECK(recv_port >= 0, "ConnectByChannel: receiver has no free port for this channel");
  Connect(vm::PortRef{from_process, send_port}, vm::PortRef{to_process, recv_port});
}

void CheckedSystem::WireAdjacent(const esi::SystemInfo& info, int upper_process,
                                 std::string_view upper, int lower_process,
                                 std::string_view lower) {
  auto has_port = [&](int process, const esi::ChannelInfo* channel, bool is_send) {
    for (const PortDecl& decl : entries_[process].process->ports()) {
      if (decl.channel == channel && decl.is_send == is_send) {
        return true;
      }
    }
    return false;
  };
  if (const esi::ChannelInfo* down = info.FindChannel(upper, lower)) {
    if (has_port(upper_process, down, true) && has_port(lower_process, down, false)) {
      ConnectByChannel(upper_process, lower_process, down);
    }
  }
  if (const esi::ChannelInfo* up = info.FindChannel(lower, upper)) {
    if (has_port(lower_process, up, true) && has_port(upper_process, up, false)) {
      ConnectByChannel(lower_process, upper_process, up);
    }
  }
}

void CheckedSystem::ResetAll() {
  for (Entry& entry : entries_) {
    entry.process->Reset();
  }
}

std::vector<int> CheckedSystem::SnapshotSizes() const {
  std::vector<int> sizes;
  sizes.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    sizes.push_back(entry.process->SnapshotSize());
  }
  return sizes;
}

void CheckedSystem::RestoreAll(const std::vector<int32_t>& state) {
  int offset = 0;
  for (Entry& entry : entries_) {
    int size = entry.process->SnapshotSize();
    entry.process->Restore(std::span<const int32_t>(state).subspan(offset, size));
    offset += size;
  }
}

bool CheckedSystem::Closure(Violation* violation, bool* progress) {
  for (Entry& entry : entries_) {
    Process& process = *entry.process;
    if (process.state() != vm::RunState::kRunnable) {
      continue;
    }
    std::string error;
    vm::RunState state = process.RunToBlock(&error);
    if (process.TakeProgressFlag()) {
      *progress = true;
    }
    switch (state) {
      case vm::RunState::kAssertFailed:
        violation->kind = ViolationKind::kAssertionFailed;
        violation->message = error;
        return false;
      case vm::RunState::kRuntimeError:
        violation->kind = ViolationKind::kRuntimeError;
        violation->message = error;
        return false;
      default:
        break;
    }
  }
  return true;
}

std::vector<CheckedSystem::Transition> CheckedSystem::EnabledTransitions() const {
  std::vector<Transition> transitions;
  EnabledTransitions(&transitions);
  return transitions;
}

void CheckedSystem::EnabledTransitions(std::vector<Transition>* out) const {
  std::vector<Transition>& transitions = *out;
  transitions.clear();
  for (size_t p = 0; p < entries_.size(); ++p) {
    const Process& process = *entries_[p].process;
    if (process.state() == vm::RunState::kBlockedSend) {
      int port = process.blocked_port();
      const std::optional<vm::PortRef>& link = entries_[p].links[port];
      if (!link.has_value()) {
        continue;  // Unconnected port can never fire; shows up as deadlock.
      }
      const Process& peer = *entries_[link->process].process;
      if (peer.state() == vm::RunState::kBlockedRecv && peer.blocked_port() == link->port) {
        Transition t;
        t.kind = Transition::Kind::kTransfer;
        t.process = static_cast<int>(p);
        t.peer = link->process;
        transitions.push_back(t);
      }
    } else if (process.state() == vm::RunState::kBlockedNondet) {
      for (int choice = 0; choice < process.NondetArity(); ++choice) {
        Transition t;
        t.kind = Transition::Kind::kChoice;
        t.process = static_cast<int>(p);
        t.choice = choice;
        transitions.push_back(t);
      }
    }
  }
}

void CheckedSystem::Apply(const Transition& t) {
  Process& process = *entries_[t.process].process;
  if (t.kind == Transition::Kind::kChoice) {
    process.CompleteNondet(t.choice);
    return;
  }
  Process& peer = *entries_[t.peer].process;
  // PendingMessage borrows the sender's staging buffer, so deliver to the
  // receiver before completing the send invalidates it.
  std::span<const int32_t> message = process.PendingMessage();
  peer.CompleteRecv(message);
  process.CompleteSend();
}

bool CheckedSystem::TransferOnExclusiveChannel(const Transition& t) const {
  if (!exclusive_ports_ready_) {
    std::map<const esi::ChannelInfo*, int> links;
    for (const Entry& entry : entries_) {
      const std::vector<PortDecl>& decls = entry.process->ports();
      for (size_t port = 0; port < decls.size(); ++port) {
        if (decls[port].is_send && entry.links[port].has_value()) {
          ++links[decls[port].channel];
        }
      }
    }
    exclusive_ports_.assign(entries_.size(), {});
    for (size_t p = 0; p < entries_.size(); ++p) {
      const std::vector<PortDecl>& decls = entries_[p].process->ports();
      for (const PortDecl& decl : decls) {
        exclusive_ports_[p].push_back(links[decl.channel] == 1);
      }
    }
    exclusive_ports_ready_ = true;
  }
  const Process& sender = *entries_[t.process].process;
  return exclusive_ports_[static_cast<size_t>(t.process)]
                         [static_cast<size_t>(sender.blocked_port())];
}

int CheckedSystem::PickAmple(const std::vector<Transition>& transitions,
                             bool livelock_sensitive) const {
  if (transitions.size() < 2) {
    return -1;  // Nothing to reduce (and never shrink a singleton: keeps the
                // reduced graph a subgraph with identical verdict structure).
  }
  int fallback = -1;
  for (size_t i = 0; i < transitions.size(); ++i) {
    const Transition& t = transitions[i];
    if (t.kind != Transition::Kind::kTransfer || !TransferOnExclusiveChannel(t)) {
      continue;
    }
    // Both endpoints are blocked on a 1:1 channel no other process touches:
    // the transfer stays enabled and unchanged along any interleaving of the
    // other transitions, and firing it cannot enable, disable, or alter any
    // of them — a persistent singleton. Its closure only moves the two
    // participants, so assertions/end-state changes in other processes are
    // impossible (invisibility), leaving only progress labels (below) and
    // the caller's cycle proviso.
    NextStepSummary sender = entries_[static_cast<size_t>(t.process)].process->PeekNextStep();
    NextStepSummary receiver = entries_[static_cast<size_t>(t.peer)].process->PeekNextStep();
    if (livelock_sensitive && (sender.may_pass_progress || receiver.may_pass_progress)) {
      continue;  // Might pass a progress label: visible to the NPC search.
    }
    if (fallback < 0) {
      fallback = static_cast<int>(i);
    }
    // Prefer a transfer whose endpoints continue deterministically to at most
    // one port each: those chain into further forced rendezvous, giving the
    // longest reduced runs.
    if (!sender.may_choose && !receiver.may_choose &&
        std::popcount(sender.port_mask) <= 1 && std::popcount(receiver.port_mask) <= 1) {
      return static_cast<int>(i);
    }
  }
  return fallback;
}

bool CheckedSystem::AllAtValidEnd() const {
  for (const Entry& entry : entries_) {
    if (!entry.process->AtValidEndState()) {
      return false;
    }
  }
  return true;
}

std::string CheckedSystem::DescribeBlockedProcesses() const {
  std::string out;
  for (const Entry& entry : entries_) {
    if (entry.process->AtValidEndState()) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += entry.process->name();
    switch (entry.process->state()) {
      case vm::RunState::kBlockedSend:
        out += " (blocked sending)";
        break;
      case vm::RunState::kBlockedRecv:
        out += " (blocked receiving outside an end label)";
        break;
      case vm::RunState::kBlockedNondet:
        out += " (blocked at nondet)";
        break;
      default:
        out += " (not at end)";
        break;
    }
  }
  return out;
}

CheckResult CheckedSystem::Check(const CheckerOptions& options) {
  auto start_time = std::chrono::steady_clock::now();
  CheckResult result;

  // COLLAPSE storage (see state_codec.h): visited keys become one component
  // id per process; the codec also gives the incremental snapshot/restore
  // hot path. Without collapse the codec degrades to full-vector mode.
  std::unique_ptr<CollapseTable> components;
  if (options.collapse) {
    components = std::make_unique<CollapseTable>(SnapshotSizes());
  }
  StateCodec codec(*this, components.get());

  struct Frame {
    std::vector<int32_t> key;
    uint64_t hash = 0;  // HashWords(key).
    std::vector<Transition> transitions;
    size_t next = 0;
    // Progress transitions taken on the stack up to and including this frame.
    uint64_t progress_count = 0;
    // >= 0: partial-order reduction is active and only transitions[ample] is
    // explored (`next` then just counts 0 -> 1). Reset to -1 with next = 0
    // when the cycle proviso or progress visibility forces full expansion.
    int ample = -1;
    // Index of the edge this frame most recently descended through (for
    // counterexample traces).
    int taken = -1;
    // The forced-run transitions walked inline between the parent's `taken`
    // edge and this frame's state (see kPorChainSampleMask).
    std::vector<Transition> chain;
  };

  // stack[0, depth) is the DFS stack. Frames are recycled, so their vectors
  // keep their capacity: stack[depth] is where the next child is built.
  // Growing `stack` moves the frames, so a Frame& is taken anew after it.
  std::vector<Frame> stack(1);
  size_t depth = 0;

  // Reports a violation whose trace is the DFS stack's path, then `current`
  // (the transition being applied), then `chain` (the forced run walked
  // after it). Strings are built only here.
  auto report = [&](ViolationKind kind, std::string message, const Transition* current,
                    const std::vector<Transition>* chain = nullptr) {
    std::vector<Transition> path;
    for (size_t i = 0; i + 1 < depth; ++i) {
      const Frame& frame = stack[i];
      assert(frame.taken >= 0);
      path.push_back(frame.transitions[static_cast<size_t>(frame.taken)]);
      path.insert(path.end(), stack[i + 1].chain.begin(), stack[i + 1].chain.end());
    }
    if (depth > 0 && current != nullptr) {
      path.push_back(*current);
    }
    if (chain != nullptr) {
      path.insert(path.end(), chain->begin(), chain->end());
    }
    Violation v;
    v.kind = kind;
    v.message = std::move(message);
    v.trace = DescribePath(path);
    result.violation = std::move(v);
  };

  // Initial closure.
  ResetAll();
  Violation violation;
  bool progress = false;
  if (!Closure(&violation, &progress)) {
    result.violation = std::move(violation);
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    return result;
  }

  // With livelock checking the table tracks the minimum progress credit each
  // state was reached with, and re-admits a state reached with strictly lower
  // credit. Without this, a non-progress cycle entered through a cross edge
  // is missed: the cycle's states can all be first visited on paths with
  // higher credit (e.g. via a progress-labeled detour), so plain dedup prunes
  // the low-credit re-traversal before it can close the equal-credit back
  // edge below. Credits only shrink toward zero, so the re-exploration
  // terminates.
  StateTableOptions table_options;
  table_options.fingerprint_only = options.fingerprint_only;
  table_options.track_progress = options.check_livelock;
  StateTable visited(table_options);
  // Key hash -> index of the stack frame holding that key. A frame's entry is
  // erased when it pops. The dedup-free tree search can push a key that is
  // already on the stack; the newer frame then takes the entry over.
  FingerprintIndex on_stack;
  auto find_on_stack = [&](uint64_t hash, const std::vector<int32_t>& key) {
    return on_stack.Find(hash, [&](uint32_t index) { return stack[index].key == key; });
  };
  // The forced walk's unsampled states (exact, whatever fingerprint_only
  // says), emptied per walk.
  StateTable walk_seen;

  {
    Frame& initial = stack[0];
    codec.EncodeFull(&initial.key);
    initial.hash = HashWords(initial.key);
    EnabledTransitions(&initial.transitions);
    visited.ClaimHashed(initial.hash, initial.key, 0);
    on_stack.Insert(initial.hash, 0);

    if (initial.transitions.empty() && options.check_deadlock && !AllAtValidEnd()) {
      report(ViolationKind::kInvalidEndState, "invalid end state: " + DescribeBlockedProcesses(),
             nullptr);
      result.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
      return result;
    }
    if (options.por) {
      initial.ample = PickAmple(initial.transitions, options.check_livelock);
    }
    depth = 1;
  }

  auto out_of_budget = [&]() {
    if (options.max_states != 0 && visited.size() >= options.max_states) {
      return true;
    }
    if (options.max_transitions != 0 && result.transitions >= options.max_transitions) {
      return true;
    }
    return false;
  };

  // Reused per-step scratch: the would-be child key is encoded here and only
  // copied when the child is actually pushed.
  std::vector<int32_t> next_key;

  auto pop = [&]() {
    --depth;
    on_stack.Erase(stack[depth].hash, static_cast<uint32_t>(depth));
  };

  while (depth > 0 && !result.violation.has_value()) {
    if (stack.size() == depth) {
      stack.emplace_back();
    }
    Frame& frame = stack[depth - 1];
    bool frame_done =
        frame.ample >= 0 ? frame.next > 0 : frame.next >= frame.transitions.size();
    if (frame_done) {
      if (frame.ample >= 0) {
        ++result.por_reduced_states;
      }
      pop();
      continue;
    }
    if (out_of_budget()) {
      result.budget_exhausted = true;
      break;
    }
    if (static_cast<int>(depth) > options.max_depth) {
      // Depth prune. The budget flag means "a reachable subtree was actually
      // skipped", so probe the frame's successors: only an unvisited one (or
      // a violating closure we are not reporting) marks the run incomplete.
      // Under an active reduction every edge is still unexplored.
      if (!result.budget_exhausted) {
        size_t probe_begin = frame.ample >= 0 ? 0 : frame.next;
        for (size_t i = probe_begin; i < frame.transitions.size(); ++i) {
          codec.Restore(frame.key);
          codec.NoteStep(frame.transitions[i]);
          Apply(frame.transitions[i]);
          Violation probe_violation;
          bool probe_progress = false;
          if (!Closure(&probe_violation, &probe_progress)) {
            result.budget_exhausted = true;
            break;
          }
          codec.EncodeStep(&next_key);
          uint64_t probe_credit = frame.progress_count + (probe_progress ? 1 : 0);
          if (options.disable_state_dedup ||
              visited.WouldClaimHashed(HashWords(next_key), next_key, probe_credit)) {
            result.budget_exhausted = true;
            break;
          }
        }
      }
      pop();
      continue;
    }
    // Pruned frames above are not counted: with depth pruning active,
    // max_depth_reached never exceeds max_depth.
    result.max_depth_reached = std::max(result.max_depth_reached, static_cast<int>(depth));

    size_t index = frame.ample >= 0 ? static_cast<size_t>(frame.ample) : frame.next;
    frame.taken = static_cast<int>(index);
    ++frame.next;
    const Transition t = frame.transitions[index];
    uint64_t parent_progress = frame.progress_count;

    codec.Restore(frame.key);
    codec.NoteStep(t);
    Apply(t);
    ++result.transitions;
    bool step_progress = false;
    if (!Closure(&violation, &step_progress)) {
      report(violation.kind, violation.message, &t);
      break;
    }

    codec.EncodeStep(&next_key);
    uint64_t next_hash = HashWords(next_key);

    const uint32_t* stack_hit = nullptr;
    if (options.check_livelock || frame.ample >= 0) {
      stack_hit = find_on_stack(next_hash, next_key);
    }

    // Non-progress cycle: a back edge to an on-stack state with no progress
    // transition anywhere along the cycle.
    if (options.check_livelock && stack_hit != nullptr) {
      uint64_t progress_at_entry = stack[*stack_hit].progress_count;
      uint64_t progress_now = parent_progress + (step_progress ? 1 : 0);
      if (progress_now == progress_at_entry) {
        report(ViolationKind::kNonProgressCycle,
               "non-progress cycle (livelock): a reachable cycle passes no progress label",
               &t);
        break;
      }
    }

    // Cycle proviso + progress visibility: abandon the reduction and
    // re-expand this frame in full when the ample edge closes a DFS-stack
    // cycle (otherwise the postponed transitions could be ignored forever
    // around that cycle), or when it dynamically passed a progress label the
    // static lookahead missed.
    if (frame.ample >= 0 && (stack_hit != nullptr || step_progress)) {
      frame.ample = -1;
      frame.next = 0;
    }

    uint64_t next_progress = parent_progress + (step_progress ? 1 : 0);
    if (!options.disable_state_dedup &&
        !visited.ClaimHashed(next_hash, next_key, next_progress)) {
      continue;  // Already explored (at this progress credit or lower).
    }

    Frame& child = stack[depth];
    EnabledTransitions(&child.transitions);
    child.progress_count = next_progress;
    child.next = 0;
    child.ample = -1;
    child.taken = -1;
    child.chain.clear();

    // Forced-run compression (see kPorChainSampleMask in checker.h): walk a
    // run of singleton-transition states inline, closure-checking each one,
    // storing only the sampled states, and land the DFS on the first state
    // that branches, ends, or is already stored. Disabled for the livelock
    // search (progress credits are tracked per stack frame) and for the
    // dedup-free tree search (no table to sample into).
    if (options.por && !options.check_livelock && !options.disable_state_dedup &&
        child.transitions.size() == 1) {
      walk_seen.Clear();
      bool abandoned = false;
      bool halt = false;
      while (child.transitions.size() == 1) {
        const Transition forced = child.transitions[0];
        codec.NoteStep(forced);
        Apply(forced);
        ++result.transitions;
        child.chain.push_back(forced);
        bool chain_progress = false;
        if (!Closure(&violation, &chain_progress)) {
          report(violation.kind, violation.message, &t, &child.chain);
          halt = true;
          break;
        }
        codec.EncodeStep(&next_key);
        next_hash = HashWords(next_key);
        if (chain_progress) {
          ++child.progress_count;
        }
        EnabledTransitions(&child.transitions);
        if (child.transitions.size() != 1) {
          break;  // Landing state (branch point or end): claimed below.
        }
        if ((codec.FullStateHash(next_hash) & kPorChainSampleMask) == 0) {
          if (!visited.ClaimHashed(next_hash, next_key, child.progress_count)) {
            abandoned = true;  // Sampled run state already stored: the rest
            break;             // of the run was (or is being) explored.
          }
        } else {
          if (!walk_seen.ClaimHashed(next_hash, next_key)) {
            abandoned = true;  // Unsampled cycle, now fully traversed once.
            break;
          }
          ++result.por_reduced_states;
        }
        if (out_of_budget()) {
          result.budget_exhausted = true;
          halt = true;
          break;
        }
      }
      if (halt) {
        break;
      }
      if (abandoned) {
        continue;
      }
      // Claim the landing state like any other fresh child.
      if (!visited.ClaimHashed(next_hash, next_key, child.progress_count)) {
        continue;
      }
    }

    if (child.transitions.empty()) {
      if (options.check_deadlock && !AllAtValidEnd()) {
        report(ViolationKind::kInvalidEndState,
               "invalid end state: " + DescribeBlockedProcesses(), &t, &child.chain);
        break;
      }
      continue;  // Valid end state; no successors.
    }

    if (options.por) {
      child.ample = PickAmple(child.transitions, options.check_livelock);
    }
    child.key = next_key;
    child.hash = next_hash;
    if (uint32_t* hit = find_on_stack(next_hash, next_key)) {
      *hit = static_cast<uint32_t>(depth);
    } else {
      on_stack.Insert(next_hash, static_cast<uint32_t>(depth));
    }
    ++depth;
  }

  result.states_stored = visited.size();
  result.state_bytes = visited.payload_bytes();
  result.component_bytes = components != nullptr ? components->payload_bytes() : 0;
  result.ok = !result.violation.has_value();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace efeu::check
