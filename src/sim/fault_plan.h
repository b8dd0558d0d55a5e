// Deterministic fault injection for the simulated I2C world. A FaultPlan is
// consulted by the bus devices at well-defined protocol opportunities (one
// counter per fault kind), so a schedule is reproducible independent of
// wall-clock time: either scripted ("fire at the k-th opportunity of this
// kind") or drawn from a seeded xorshift64 stream. Every injected fault is
// appended to a trace that can be turned back into a scripted plan
// (Replayed), making any random run replayable bit-for-bit.

#ifndef SRC_SIM_FAULT_PLAN_H_
#define SRC_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/i2c_bus.h"

namespace efeu::sim {

enum class FaultKind {
  kNackOnAddress,  // device stays silent for one address byte
  kNackOnData,     // device refuses one received data byte
  kAckGlitch,      // a low SDA sample in an ACK window reads high
  kSdaStuckLow,    // SDA held low for `duration` bus samples
  kSclStuckLow,    // SCL held low for `duration` bus samples (stretch burst)
  kDeviceBusy,     // device NACKs `duration` consecutive address bytes
  // Boundary faults: failures of the HW/SW coupling itself (MMIO regfile,
  // interrupt line, ready/valid handshake) rather than of the I2C wire.
  // Consulted by the hybrid coupling in src/driver/hybrid.cc and by the
  // Xilinx-IP baseline, never by the bus devices.
  kDroppedInterrupt,   // a pending up-message raises no IRQ edge
  kSpuriousInterrupt,  // an IRQ edge with no up-message behind it
  kStalledUpMessage,   // up ready/valid handshake never completes
  kCorruptedMmioRead,  // a status read returns garbage for `duration` polls
  kLostDoorbell,       // a down-valid doorbell write is silently dropped
  // Topology faults: failures of the bus fabric between controller and
  // device (mux chips, competing masters) rather than of either endpoint.
  // Consulted by the topology components in src/sim/mux.cc and
  // src/sim/second_master.cc, never by point-to-point devices.
  kMuxStuck,         // a mux select is acked but the switch does not move
  kMuxMisroute,      // a mux select latches but routes the wrong channel
  kArbitrationLoss,  // a second master wins the bus at the controller START
};

inline constexpr int kNumFaultKinds = 14;

// True for the MMIO/interrupt-boundary kinds (consulted by driver couplings,
// not by bus devices).
bool IsBoundaryFault(FaultKind kind);

const char* FaultKindName(FaultKind kind);

// One scripted fault: fire at the `at`-th opportunity (0-based, per kind).
struct FaultEvent {
  FaultKind kind = FaultKind::kNackOnAddress;
  uint64_t at = 0;
  int duration = 1;
};

// One injected fault, as recorded in the trace. `opportunity` is the per-kind
// opportunity counter at which it fired, so a trace replays exactly against
// the same stimulus without any notion of time.
struct FaultRecord {
  FaultKind kind = FaultKind::kNackOnAddress;
  uint64_t opportunity = 0;
  int duration = 1;
};

class FaultPlan {
 public:
  // Inactive plan: every Consult says "no fault". This is the default
  // everywhere, so an unconfigured simulation is byte-identical to one built
  // before fault injection existed.
  FaultPlan() = default;

  static FaultPlan Scripted(std::vector<FaultEvent> events);
  // Every opportunity independently fires with probability `rate`, with the
  // kind-appropriate duration drawn from the same stream. `max_faults` bounds
  // the total number of injected faults (< 0 = unbounded).
  static FaultPlan Random(uint64_t seed, double rate, int64_t max_faults = -1);

  bool active() const { return mode_ != Mode::kInactive; }

  // Random plans skip the boundary kinds unless opted in, so a seeded wire-
  // fault stream is unchanged by the driver couplings' extra consult sites.
  // Scripted plans fire whatever they script regardless of this flag.
  void set_boundary_faults(bool enabled) { boundary_random_ = enabled; }

  // Consulted by a device at one opportunity for `kind`; returns the fault
  // duration (0 = behave normally) and advances the per-kind counter.
  int Consult(FaultKind kind);

  // Line-stuck bookkeeping shared by the bus samplers: call once per bus
  // sample. Decrements active forced-low windows and consults
  // kSclStuckLow/kSdaStuckLow for new ones, applying the open-drain overlay
  // on `bus` (a forced line reads low for every device).
  void StepLineFaults(I2cBus* bus);

  // Consulted when a sampler that released SDA reads it low (an ACK window
  // or a responder-driven data bit); true = report the sample as high.
  bool ConsultAckGlitch() { return Consult(FaultKind::kAckGlitch) > 0; }

  // The replayable trace of everything injected so far.
  const std::vector<FaultRecord>& trace() const { return trace_; }
  uint64_t faults_injected() const { return trace_.size(); }
  int DistinctKindsInjected() const;

  // A scripted plan that reproduces this plan's trace against the same
  // stimulus.
  FaultPlan Replayed() const;

  // Human-readable description of how the plan was constructed plus the
  // trace so far, e.g. "random(seed=0x2a, rate=0.02) trace=[ack-glitch@3x1]".
  std::string Describe() const;

  // A single line of C++ that rebuilds a scripted plan reproducing this
  // plan's trace. Embedded in assertion messages so a seeded-random CI
  // failure is replayable from the log alone.
  std::string ReplayCommand() const;

  // Clears counters, trace and stuck-line state; reseeds the RNG. The plan
  // then behaves exactly as freshly constructed.
  void Reset();

 private:
  enum class Mode { kInactive, kScripted, kRandom };

  uint64_t NextRandom();
  int RandomDuration(FaultKind kind);

  Mode mode_ = Mode::kInactive;
  std::vector<FaultEvent> events_;
  uint64_t seed_ = 0;
  uint64_t rng_ = 0;
  double rate_ = 0;
  int64_t max_faults_ = -1;
  bool boundary_random_ = false;

  uint64_t opportunities_[kNumFaultKinds] = {};
  std::vector<FaultRecord> trace_;

  // Active forced-low windows, in bus samples.
  int scl_forced_left_ = 0;
  int sda_forced_left_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_FAULT_PLAN_H_
