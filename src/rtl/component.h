// The cycle-accurate RTL simulation substrate: handshake wires and the
// two-phase (evaluate/commit) component interface. Every hardware entity —
// generated layer FSMs, the MMIO register file, the bus adapter, I2C device
// models — implements RtlComponent; RtlSystem clocks them all at 100 MHz.

#ifndef SRC_RTL_COMPONENT_H_
#define SRC_RTL_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace efeu::rtl {

// One ready/valid handshake channel: the sender owns data+valid, the
// receiver owns ready. Components read peer-owned fields during Evaluate()
// (they then hold the values committed at the previous clock edge) and write
// their own fields during Commit().
struct HsWire {
  std::vector<int32_t> data;
  bool valid = false;
  bool ready = false;

  explicit HsWire(int words = 0) : data(static_cast<size_t>(words), 0) {}
};

// IdleCycles() of a component that stays idle until one of its inputs moves.
inline constexpr uint64_t kIdleForever = std::numeric_limits<uint64_t>::max();

class RtlComponent {
 public:
  virtual ~RtlComponent() = default;

  // Phase 1: compute this clock's outputs from the currently visible wire
  // values; stage them internally.
  virtual void Evaluate() = 0;
  // Phase 2: publish the staged outputs.
  virtual void Commit() = 0;

  // Idle-cycle skipping (DESIGN.md "Idle-cycle skipping"). How many upcoming
  // clock edges this component would pass without changing any output or
  // any state other than a countdown, judged from its inputs as they are
  // now (wires, bus levels, state software wrote between edges). 0 means
  // "must tick": the default, so a component without the hooks keeps
  // RtlSystem ticking every edge.
  virtual uint64_t IdleCycles() const { return 0; }
  // Applies `edges` such idle edges at once (1 <= edges <= IdleCycles()):
  // exactly what that many Evaluate/Commit pairs would do to the countdowns
  // and per-edge counters. On a ticked edge RtlSystem::Step calls it with 1
  // in place of Evaluate, before any Commit, so it sees the inputs Evaluate
  // would see.
  virtual void AdvanceIdle(uint64_t edges) {}
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_COMPONENT_H_
