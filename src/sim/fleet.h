// Fleet-scale co-simulation: thousands of isolated supervised driver stacks
// under one shared compile. Each stack is a full HybridDriver — its own RTL
// system, bus, devices, software VM — wrapped in a Supervisor and driven
// through a per-class soak workload under a seeded FaultPlan, one supervised
// operation after another, until the workload completes or an operation fails
// terminally.
//
// Stacks are fully isolated (no shared mutable state beyond the read-only
// compiled controller stack), so a stack's result does not depend on when or
// on which thread it runs. With num_threads>1, stacks shard by id onto worker
// threads; each shard runs its stacks to completion one at a time and frees
// each before it builds the next, so peak memory grows with the thread count,
// not the stack count. The aggregate report is merged in stack-id order —
// byte-identical for any thread count, which the determinism regression pins
// via FleetReport::CounterSignature().

#ifndef SRC_SIM_FLEET_H_
#define SRC_SIM_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/hybrid.h"
#include "src/driver/recovery.h"
#include "src/driver/supervisor.h"
#include "src/monitor/monitor_spec.h"
#include "src/sim/fault_plan.h"

namespace efeu::sim {

// Topology class of one fleet stack — which bus fabric the supervised driver
// faces, and therefore which fault surface its plan can hit.
enum class StackClass {
  kEeprom,       // point-to-point 24AA512 (wire + boundary faults)
  kMuxed,        // device segment behind an I2C mux (mux-stuck / misroute)
  kMultiMaster,  // competing master on the bus (arbitration loss)
  kMfd,          // register-file MFD beside the EEPROM (IRQ-chip traffic)
};

inline constexpr int kNumStackClasses = 4;

const char* StackClassName(StackClass stack_class);

struct StackConfig {
  StackClass stack_class = StackClass::kEeprom;
  // Seeds the stack's FaultPlan and its topology knobs (mux channel, choice
  // of scripted-vs-random topology schedule).
  uint64_t seed = 1;
  bool interrupt_driven = false;
  // Write+read round trips through the supervised EEPROM path.
  int rounds = 3;
  // Random-plan parameters (the seed-matrix soak defaults).
  double fault_rate = 0.01;
  int64_t max_faults = 4;
};

// The standard soak mix: round-robin over the four stack classes with
// alternating wait modes and per-stack seeds derived from `base_seed`, so a
// fleet of N stacks exercises every topology in both polling and interrupt
// mode under N distinct fault schedules.
StackConfig MakeSoakStack(int index, uint64_t base_seed);

// Outcome of one stack once its workload completed or an operation failed.
struct StackReport {
  int id = 0;
  StackClass stack_class = StackClass::kEeprom;
  uint64_t seed = 0;
  bool interrupt_driven = false;
  // Every workload operation completed and the stack ended un-wedged.
  bool completed = false;
  driver::HealthState health = driver::HealthState::kHealthy;
  // Replay-ready failure description (seed, trace, replay command, counter
  // dumps); empty on success.
  std::string failure;
  uint64_t ops_completed = 0;
  // Supervised operations issued: the completed ones plus the one that
  // failed, if any. FleetReport::events_processed sums these.
  uint64_t ops_attempted = 0;
  uint64_t faults_injected = 0;
  driver::RecoveryCounters recovery;
  monitor::TripCounters monitor;
  // Stack-local virtual time when the stack's last operation returned.
  double finished_at_ns = 0;
  // Modeled RTL clock edges, and how many of them were evaluated rather than
  // skipped as idle (host cost only; not part of the signature).
  uint64_t rtl_cycles = 0;
  uint64_t rtl_cycles_ticked = 0;
};

struct FleetOptions {
  // Worker threads. Stacks shard by id % num_threads, and each shard runs its
  // stacks one at a time; aggregates merge in stack-id order, so the report
  // is identical for any thread count.
  int num_threads = 1;
};

// Aggregate outcome of a fleet run. Everything except the host-side timing
// fields is deterministic for a fixed stack list (any thread count).
struct FleetReport {
  int num_stacks = 0;
  int num_threads = 1;
  int class_counts[kNumStackClasses] = {};

  // Health once every stack has run.
  int healthy = 0;
  int degraded = 0;
  int wedged = 0;

  uint64_t ops_completed = 0;
  uint64_t faults_injected = 0;
  // One per supervised operation attempted, completed or failed.
  uint64_t events_processed = 0;
  driver::RecoveryCounters recovery;  // summed in stack-id order
  monitor::TripCounters monitor;      // merged in stack-id order

  // Per-stack distribution of ladder activity. Buckets: 0, 1, 2, 3-4, 5-8,
  // >8 (HistogramBucket maps a count to its bucket).
  static constexpr int kNumBuckets = 6;
  uint64_t soft_reset_hist[kNumBuckets] = {};
  uint64_t degraded_hist[kNumBuckets] = {};
  uint64_t trip_hist[kNumBuckets] = {};

  // Replay-ready failure blocks (empty on a clean soak).
  std::vector<std::string> failures;
  // The stack that needed the most soft resets (lowest id on ties).
  StackReport worst;

  // Max stack-local virtual finish time across the fleet.
  double makespan_ns = 0;

  // Modeled RTL clock edges summed over the stacks, and how many of them
  // were evaluated rather than skipped as idle. Excluded from
  // CounterSignature: the ticked share is host cost, not a modeled result.
  uint64_t rtl_cycles = 0;
  uint64_t rtl_cycles_ticked = 0;

  // Host-side cost — excluded from CounterSignature.
  double host_seconds = 0;
  double stacks_per_second = 0;

  // One-line digest of every deterministic aggregate. The determinism
  // regression asserts byte-identical signatures across thread counts.
  std::string CounterSignature() const;
  // Multi-line human report (soak logs, bench output).
  std::string Format() const;
};

int HistogramBucket(uint64_t count);
const char* HistogramBucketLabel(int bucket);

// Runs one stack's full workload to completion and returns its report; the
// stack is freed before this returns. Fleet::Run calls it for every stack.
// Null compilation compiles privately.
StackReport RunStackStandalone(
    int id, const StackConfig& config,
    std::shared_ptr<const ir::Compilation> compilation = nullptr);

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registers one stack; returns its id (stack ids are dense, in add order).
  int AddStack(const StackConfig& config);
  int num_stacks() const { return static_cast<int>(configs_.size()); }

  // Runs every stack to completion and merges the per-stack reports.
  // Callable once per Fleet.
  FleetReport Run();

  // The HybridConfig a fleet stack runs under (public so callers can replay
  // a stack's workload outside the fleet).
  static driver::HybridConfig BuildStackHybridConfig(
      const StackConfig& config,
      std::shared_ptr<const ir::Compilation> compilation);

 private:
  FleetOptions options_;
  std::vector<StackConfig> configs_;
  std::shared_ptr<const ir::Compilation> compilation_;
  bool ran_ = false;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_FLEET_H_
