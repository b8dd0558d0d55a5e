// Fleet tests: report plumbing, the fleet determinism invariants (the
// aggregate signature is byte-identical across thread counts, and a
// single-stack fleet run matches the same stack run standalone), and the
// tier-1 fleet soak slice (the >=1024-stack nightly soak runs behind
// EFEU_FLEET_SOAK; EFEU_FLEET_SEED reseeds it) with its pinned signature and
// the share of RTL edges each soak stack ticks.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/driver/resources.h"
#include "src/sim/fleet.h"

namespace efeu::sim {
namespace {

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

TEST(FleetReportUnits, HistogramBuckets) {
  EXPECT_EQ(HistogramBucket(0), 0);
  EXPECT_EQ(HistogramBucket(1), 1);
  EXPECT_EQ(HistogramBucket(2), 2);
  EXPECT_EQ(HistogramBucket(3), 3);
  EXPECT_EQ(HistogramBucket(4), 3);
  EXPECT_EQ(HistogramBucket(5), 4);
  EXPECT_EQ(HistogramBucket(8), 4);
  EXPECT_EQ(HistogramBucket(9), 5);
  EXPECT_EQ(HistogramBucket(1000), 5);
  EXPECT_STREQ(HistogramBucketLabel(3), "3-4");
}

TEST(FleetReportUnits, SoakMixCoversClassesAndModes) {
  int class_seen[kNumStackClasses] = {};
  bool irq_seen = false;
  bool polling_seen = false;
  for (int i = 0; i < 8; ++i) {
    StackConfig config = MakeSoakStack(i, 100);
    ++class_seen[static_cast<int>(config.stack_class)];
    (config.interrupt_driven ? irq_seen : polling_seen) = true;
    EXPECT_EQ(config.seed, 100u + static_cast<uint64_t>(i));
  }
  for (int c = 0; c < kNumStackClasses; ++c) {
    EXPECT_EQ(class_seen[c], 2) << StackClassName(static_cast<StackClass>(c));
  }
  EXPECT_TRUE(irq_seen);
  EXPECT_TRUE(polling_seen);
}

TEST(FleetReportUnits, EmptyFleetRunsToAnEmptyReport) {
  Fleet fleet;
  FleetReport report = fleet.Run();
  EXPECT_EQ(report.num_stacks, 0);
  EXPECT_EQ(report.events_processed, 0u);
  EXPECT_TRUE(report.failures.empty());
}

// events_processed counts every supervised operation attempted, the one that
// fails included. The soak slices and the benchmark pin fleets in which no
// operation fails, so a failing stack is pinned here: an unbounded fault plan
// makes its first write fail terminally.
TEST(FleetReportUnits, FailedOperationCountsAsAnEvent) {
  StackConfig failing;
  failing.fault_rate = 0.1;
  failing.max_faults = 1000;
  Fleet fleet;
  fleet.AddStack(failing);
  fleet.AddStack(MakeSoakStack(1, /*base_seed=*/1));
  FleetReport report = fleet.Run();
  ASSERT_EQ(report.failures.size(), 1u) << report.Format();
  EXPECT_NE(report.failures[0].find(" op 0 write"), std::string::npos) << report.failures[0];
  EXPECT_EQ(report.events_processed, report.ops_completed + 1);
}

// Stack reports merge in stack-id order whatever the sharding: failures are
// listed by id, and the worst stack is the lowest id among those with the
// most soft resets. The soak slices have no failure and no tie for worst, so
// this fleet has two of each: identical failing stacks at ids 1 and 3.
TEST(FleetReportUnits, MergeRunsInStackIdOrder) {
  StackConfig failing;
  failing.fault_rate = 0.1;
  failing.max_faults = 1000;
  StackConfig clean;
  clean.fault_rate = 0;
  const std::vector<StackConfig> configs = {clean, failing, clean, failing};
  int expected_worst = -1;
  uint64_t most_resets = 0;
  for (int id = 0; id < static_cast<int>(configs.size()); ++id) {
    uint64_t resets = RunStackStandalone(id, configs[static_cast<size_t>(id)]).recovery.soft_resets;
    if (expected_worst < 0 || resets > most_resets) {
      expected_worst = id;
      most_resets = resets;
    }
  }
  for (int threads : {1, 2}) {
    FleetOptions options;
    options.num_threads = threads;
    Fleet fleet(options);
    for (const StackConfig& config : configs) {
      fleet.AddStack(config);
    }
    FleetReport report = fleet.Run();
    ASSERT_EQ(report.failures.size(), 2u) << report.Format();
    EXPECT_EQ(report.failures[0].rfind("stack 1 ", 0), 0u) << report.failures[0];
    EXPECT_EQ(report.failures[1].rfind("stack 3 ", 0), 0u) << report.failures[1];
    EXPECT_EQ(report.worst.id, expected_worst) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Determinism invariants// ---------------------------------------------------------------------------
// Determinism invariants
// ---------------------------------------------------------------------------

// The tentpole regression: one fixed stack list, three thread counts, one
// byte-identical aggregate signature. Stacks are isolated and the merge runs
// in stack-id order, so sharding must be invisible in every counter.
TEST(FleetDeterminism, SignatureInvariantAcrossThreadCounts) {
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    FleetOptions options;
    options.num_threads = threads;
    Fleet fleet(options);
    for (int i = 0; i < 8; ++i) {
      fleet.AddStack(MakeSoakStack(i, /*base_seed=*/42));
    }
    FleetReport report = fleet.Run();
    EXPECT_TRUE(report.failures.empty()) << report.Format();
    if (baseline.empty()) {
      baseline = report.CounterSignature();
    } else {
      EXPECT_EQ(report.CounterSignature(), baseline)
          << "thread count " << threads << " changed the aggregate\n"
          << report.Format();
    }
  }
  EXPECT_NE(baseline.find("stacks=8"), std::string::npos) << baseline;
}

// A single-stack fleet must report exactly what the same stack reports when
// run standalone: the merge carries every per-stack counter through.
TEST(FleetDeterminism, SingleStackMatchesStandaloneRun) {
  StackConfig config;
  config.stack_class = StackClass::kEeprom;
  config.seed = 7;
  StackReport standalone = RunStackStandalone(0, config);

  Fleet fleet;
  fleet.AddStack(config);
  FleetReport report = fleet.Run();
  ASSERT_EQ(report.num_stacks, 1);
  EXPECT_EQ(report.ops_completed, standalone.ops_completed);
  EXPECT_EQ(report.faults_injected, standalone.faults_injected);
  EXPECT_EQ(report.makespan_ns, standalone.finished_at_ns);
  EXPECT_EQ(driver::FormatRecoveryCounters(report.recovery),
            driver::FormatRecoveryCounters(standalone.recovery));
  EXPECT_EQ(report.worst.health, standalone.health);
}

// ---------------------------------------------------------------------------
// Fleet soak
// ---------------------------------------------------------------------------

// Tier-1 runs a 16-stack slice of the fleet soak; the nightly CI job sets
// EFEU_FLEET_SOAK for >=1024 stacks under a fresh daily base seed
// (EFEU_FLEET_SEED). Every failure block embeds the per-stack replay command.
// CounterSignature() of the default tier-1 slice (16 stacks, base seed 1),
// recorded with every RTL edge ticked. The thread-count and standalone
// equalities above cannot see a change every path shares; this pin can.
constexpr const char* kSliceSignature =
    "stacks=16 classes=4/4/4/4 healthy=16 degraded=0 wedged=0 ops=116 faults=52 events=116 "
    "makespan_ns=9912030.0 | attempts=215 retries=63 nacks=64 failures=0 timeouts=17 "
    "bus_recoveries=15 deadline_hits=0 backoff_us=9250.0 soft_resets=28 reprobes=5 degraded=0 "
    "arb_waits=2 mux_selects=9 | trips=33 resets=[0:1 1:10 2:2 3-4:1 5-8:2 >8:0] "
    "degr=[0:16 1:0 2:0 3-4:0 5-8:0 >8:0] trips_hist=[0:2 1:9 2:0 3-4:1 5-8:4 >8:0] "
    "worst=7:6 failures=0";

TEST(FleetSoak, MixedFleetSoaksToQuiescence) {
  const bool full = std::getenv("EFEU_FLEET_SOAK") != nullptr;
  const int num_stacks = full ? 1024 : 16;
  uint64_t base_seed = 1;
  if (const char* env_seed = std::getenv("EFEU_FLEET_SEED")) {
    base_seed = std::strtoull(env_seed, nullptr, 10);
    if (base_seed == 0) {
      base_seed = 1;
    }
  }
  Fleet fleet;
  uint64_t expected_ops = 0;
  for (int i = 0; i < num_stacks; ++i) {
    StackConfig config = MakeSoakStack(i, base_seed);
    expected_ops += static_cast<uint64_t>(config.rounds) * 2 +
                    (config.stack_class == StackClass::kMfd ? 5 : 0);
    fleet.AddStack(config);
  }
  FleetReport report = fleet.Run();

  std::string all;
  for (const std::string& failure : report.failures) {
    all += failure + "\n---\n";
  }
  EXPECT_TRUE(report.failures.empty()) << all;
  EXPECT_EQ(report.wedged, 0) << report.Format();
  EXPECT_EQ(report.healthy + report.degraded, num_stacks);
  // One event per supervised operation attempted.
  EXPECT_EQ(report.ops_completed, expected_ops);
  EXPECT_EQ(report.events_processed, expected_ops);
  EXPECT_GT(report.makespan_ns, 0.0);
  EXPECT_NE(report.Format().find("fleet: "), std::string::npos);
  if (!full && std::getenv("EFEU_FLEET_SEED") == nullptr) {
    EXPECT_EQ(report.CounterSignature(), kSliceSignature);
  }
}

// Idle-cycle skipping stays on for every soak class in both wait modes. A new
// component that keeps the default IdleCycles() = 0 would make the stack
// tick every edge again, with every modeled output (and so every other test)
// unchanged; this share is what notices.
TEST(FleetSoak, SupervisedStacksTickUnderATenthOfTheirCycles) {
  for (int i = 0; i < 2 * kNumStackClasses; ++i) {
    const StackConfig config = MakeSoakStack(i, /*base_seed=*/1);
    const StackReport report = RunStackStandalone(i, config);
    EXPECT_TRUE(report.completed) << report.failure;
    EXPECT_GT(report.rtl_cycles, 0u);
    EXPECT_LT(report.rtl_cycles_ticked * 10, report.rtl_cycles)
        << StackClassName(config.stack_class)
        << (config.interrupt_driven ? " interrupt" : " polling") << ": "
        << report.rtl_cycles_ticked << " of " << report.rtl_cycles << " cycles ticked";
  }
}

}  // namespace
}  // namespace efeu::sim
