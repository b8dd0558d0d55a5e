// Fleet-engine tests: the shared event queue (ordering, tie-breaks, the far
// list, a reference-model stress across cascade boundaries and the
// wrapped-cursor-slot regression), the fleet determinism invariants (the
// aggregate signature is byte-identical across thread counts, and a
// single-stack fleet run matches the same stack run standalone without the
// engine), and the tier-1 fleet soak slice (the >=1024-stack nightly soak
// runs behind EFEU_FLEET_SOAK; EFEU_FLEET_SEED reseeds it) with its pinned
// signature and the share of RTL edges each soak stack ticks.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/resources.h"
#include "src/sim/event_queue.h"
#include "src/sim/fleet.h"

namespace efeu::sim {
namespace {

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

TEST(EventQueue, PopsInDueOrderWithSeqTieBreak) {
  EventQueue queue;
  queue.Schedule(500.0, 1);
  queue.Schedule(100.0, 2);
  queue.Schedule(100.0, 3);  // same due time: scheduled later, pops later
  queue.Schedule(3e8, 4);    // 300 ms: beyond the wheel block, parks far
  queue.Schedule(0.0, 5);
  EXPECT_EQ(queue.size(), 5u);

  std::vector<uint32_t> order;
  EventQueue::Event event;
  double last = -1;
  while (queue.Pop(&event)) {
    order.push_back(event.source);
    EXPECT_GE(event.due_ns, last);
    last = event.due_ns;
  }
  EXPECT_EQ(order, (std::vector<uint32_t>{5, 2, 3, 1, 4}));
  EXPECT_TRUE(queue.empty());
  EXPECT_GT(queue.stats().far_parked, 0u);
  EXPECT_EQ(queue.stats().max_size, 5u);
}

TEST(EventQueue, PastDueClampsToNow) {
  EventQueue queue;
  queue.Schedule(1000.0, 1);
  EventQueue::Event event;
  ASSERT_TRUE(queue.Pop(&event));
  EXPECT_DOUBLE_EQ(queue.now_ns(), 1000.0);
  // A source asking for the past fires at now, not before it.
  queue.Schedule(10.0, 2);
  queue.Schedule(1500.0, 3);
  ASSERT_TRUE(queue.Pop(&event));
  EXPECT_EQ(event.source, 2u);
  EXPECT_DOUBLE_EQ(queue.now_ns(), 1000.0);
  ASSERT_TRUE(queue.Pop(&event));
  EXPECT_EQ(event.source, 3u);
}

// Regression for the wrapped-cursor-slot livelock: with delta-based level
// selection an entry ~2^16 ticks ahead aliases into its level's cursor slot
// (e.g. now=0x180 ticks, entry at 0x10100 -> level 1, slot 1 = cursor slot)
// and every cascade re-inserts it into the same slot. Block-aligned level
// selection sends it a level up instead; this pins the fix.
TEST(EventQueue, FarAheadEntryAliasingCursorSlotStillPops) {
  constexpr double kNsPerTick = 1.0 / 16.0;
  EventQueue queue;
  queue.Schedule(0x180 * kNsPerTick, 1);
  EventQueue::Event event;
  ASSERT_TRUE(queue.Pop(&event));  // now = 0x180 ticks
  queue.Schedule(0x10100 * kNsPerTick, 2);
  queue.Schedule(0x3F0 * kNsPerTick, 3);
  ASSERT_TRUE(queue.Pop(&event));
  EXPECT_EQ(event.source, 3u);
  ASSERT_TRUE(queue.Pop(&event));
  EXPECT_EQ(event.source, 2u);
  EXPECT_FALSE(queue.Pop(&event));
}

// Reference-model stress: random schedule/pop interleavings, with due times
// spread to exercise every level, cross-level cascades, ties and the far
// list. The reference is an ordered set over (tick, seq) with the same
// clamp-to-now rule.
TEST(EventQueueStress, MatchesReferenceModel) {
  constexpr double kNsPerTick = 1.0 / 16.0;
  EventQueue queue;
  std::set<std::pair<uint64_t, uint64_t>> reference;  // (tick, seq)
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next_random = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t now_tick = 0;
  uint64_t seq = 0;
  // Offsets chosen to land in every wheel level plus the far list.
  const uint64_t spans[] = {1, 200, 5000, 70000, 1 << 22, 1ull << 30, 5ull << 32};
  for (int i = 0; i < 20000; ++i) {
    bool do_schedule = reference.empty() || next_random() % 3 != 0;
    if (do_schedule) {
      uint64_t span = spans[next_random() % (sizeof(spans) / sizeof(spans[0]))];
      uint64_t tick = now_tick + next_random() % span;
      queue.Schedule(static_cast<double>(tick) * kNsPerTick,
                     static_cast<uint32_t>(i));
      reference.emplace(tick < now_tick ? now_tick : tick, seq++);
    } else {
      EventQueue::Event event;
      ASSERT_TRUE(queue.Pop(&event)) << "iteration " << i;
      auto expect = *reference.begin();
      reference.erase(reference.begin());
      EXPECT_EQ(event.seq, expect.second) << "iteration " << i;
      now_tick = expect.first;
      EXPECT_DOUBLE_EQ(queue.now_ns(),
                       static_cast<double>(now_tick) * kNsPerTick)
          << "iteration " << i;
    }
  }
  // Drain what is left; order must still match.
  EventQueue::Event event;
  while (queue.Pop(&event)) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(event.seq, reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(queue.stats().cascaded, 0u);
  EXPECT_GT(queue.stats().far_parked, 0u);
}

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

// ---------------------------------------------------------------------------
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

// Engine-vs-legacy: the event-driven engine stepping a single stack must
// reproduce exactly what the same stack does run directly to completion.
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
  // One event per supervised operation, scheduled on one virtual timeline.
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
