// The RTL clock domain: owns the handshake wires and ticks every component
// with two-phase (evaluate, then commit) semantics at a fixed clock. Edges on
// which no component changes state are skipped in one jump, and a ticked edge
// evaluates only the busy components (see Step). Both move host time only:
// every modeled output is the same as ticking every component on every edge.

#ifndef SRC_RTL_SYSTEM_H_
#define SRC_RTL_SYSTEM_H_

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <vector>

#include "src/rtl/component.h"

namespace efeu::rtl {

class RtlSystem {
 public:
  explicit RtlSystem(double clock_ns = 10.0) : clock_ns_(clock_ns) {}

  // Wires live as long as the system (deque keeps pointers stable).
  HsWire* CreateWire(int words) {
    wires_.emplace_back(words);
    return &wires_.back();
  }

  // Non-owning; the caller keeps components alive.
  void AddComponent(RtlComponent* component) {
    components_.push_back(component);
    evaluated_.reserve(components_.size());
  }

  // Invoked after every clock edge (waveform capture etc.). An installed hook
  // sees every edge, so it turns idle-cycle skipping off.
  void SetPostTickHook(std::function<void(double now_ns)> hook) { hook_ = std::move(hook); }

  // Evaluates and commits one clock edge: the full-tick reference.
  void Tick() {
    for (RtlComponent* component : components_) {
      component->Evaluate();
    }
    for (RtlComponent* component : components_) {
      component->Commit();
    }
    ++cycles_;
    ++cycles_ticked_;
    if (hook_) {
      hook_(time_ns());
    }
  }

  // Advances the clock by at least one and at most `max_edges` edges. When
  // every component is idle, jumps the idle span (the minimum of their
  // IdleCycles()) in one step: every component stays idle across the jump
  // because none of them moves an output another one reads. Otherwise ticks
  // one edge on which only the busy components are evaluated and committed;
  // the idle ones advance by one edge. With a post-tick hook every step is a
  // full Tick(). Returns the edges advanced.
  uint64_t Step(uint64_t max_edges) {
    if (hook_) {
      Tick();
      return 1;
    }
    uint64_t span = kIdleForever;
    size_t busy = 0;
    for (; busy < components_.size(); ++busy) {
      const uint64_t idle = components_[busy]->IdleCycles();
      if (idle == 0) {
        break;
      }
      span = std::min(span, idle);
    }
    if (busy == components_.size() && max_edges > 0) {
      span = std::min(span, max_edges);
      for (RtlComponent* component : components_) {
        component->AdvanceIdle(span);
      }
      cycles_ += span;
      return span;
    }
    // Each component after the first busy one is judged where the full tick
    // evaluates it, so it sees what the earlier Evaluate calls changed in the
    // middle of the edge. The idle ones advance in the same pass, before any
    // Commit moves the inputs an AdvanceIdle may read (DESIGN.md "Idle-cycle
    // skipping").
    evaluated_.clear();
    for (size_t i = 0; i < components_.size(); ++i) {
      RtlComponent* component = components_[i];
      if (i < busy || (i > busy && component->IdleCycles() != 0)) {
        component->AdvanceIdle(1);
      } else {
        component->Evaluate();
        evaluated_.push_back(component);
      }
    }
    for (RtlComponent* component : evaluated_) {
      component->Commit();
    }
    ++cycles_;
    ++cycles_ticked_;
    return 1;
  }

  // Advances exactly `edges` edges, skipping idle ones.
  void Advance(uint64_t edges) {
    const uint64_t end = cycles_ + edges;
    while (cycles_ < end) {
      Step(end - cycles_);
    }
  }

  // Lands on the cycle where `while (time_ns() < target_ns) Tick();` stops.
  void TickUntil(double target_ns) { Advance(CycleReaching(target_ns) - cycles_); }

  // First cycle count >= cycles() at which time_ns() < target_ns no longer
  // holds, found with that same double comparison.
  uint64_t CycleReaching(double target_ns) const {
    return FirstCycleWhere(target_ns, [target_ns](double t) { return !(t < target_ns); });
  }
  // First cycle count >= cycles() at which time_ns() > deadline_ns.
  uint64_t CycleAfter(double deadline_ns) const {
    return FirstCycleWhere(deadline_ns, [deadline_ns](double t) { return t > deadline_ns; });
  }

  // Synchronous soft reset of the interconnect: deasserts valid/ready and
  // zeroes the payload on every wire. Component Reset() methods only publish
  // their deasserted outputs at the next Commit(), so without this a peer
  // could observe a stale pre-reset handshake on the first post-reset cycle.
  // Call it only right after resetting every component bound to the wires:
  // a component trusts that its wires still show what it last published
  // until its own reset (RtlModule's published flag), and this write would
  // otherwise break that behind its back.
  void ResetWires() {
    for (HsWire& wire : wires_) {
      wire.valid = false;
      wire.ready = false;
      std::fill(wire.data.begin(), wire.data.end(), 0);
    }
  }

  uint64_t cycles() const { return cycles_; }
  // Edges ticked, by Tick() or by Step(); cycles() - cycles_ticked() were
  // jumped as idle.
  uint64_t cycles_ticked() const { return cycles_ticked_; }
  double time_ns() const { return TimeAt(cycles_); }
  double clock_ns() const { return clock_ns_; }

 private:
  double TimeAt(uint64_t cycle) const { return static_cast<double>(cycle) * clock_ns_; }

  // First cycle count c >= cycles() with stop(TimeAt(c)), for a predicate
  // that stays true once it holds. `bound_ns` (where it starts to hold) only
  // seeds the search; the answer comes from evaluating `stop` itself.
  template <typename Stop>
  uint64_t FirstCycleWhere(double bound_ns, Stop stop) const {
    uint64_t cycle = cycles_;
    if (stop(TimeAt(cycle))) {
      return cycle;
    }
    const double guess = std::ceil(bound_ns / clock_ns_);
    if (guess > static_cast<double>(cycle) && guess < 0x1p62) {
      cycle = static_cast<uint64_t>(guess);
      while (cycle > cycles_ && stop(TimeAt(cycle - 1))) {
        --cycle;
      }
    }
    while (!stop(TimeAt(cycle))) {
      ++cycle;
    }
    return cycle;
  }

  double clock_ns_;
  uint64_t cycles_ = 0;
  uint64_t cycles_ticked_ = 0;
  std::deque<HsWire> wires_;
  std::vector<RtlComponent*> components_;
  // The components Step evaluated on the edge it is ticking.
  std::vector<RtlComponent*> evaluated_;
  std::function<void(double)> hook_;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_SYSTEM_H_
