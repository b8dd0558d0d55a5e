// End-to-end hybrid driver tests: every software/hardware split must move
// real bytes over the simulated bus to the behavioural EEPROM and back, in
// both polling and interrupt-driven modes; baselines must function too.
// Idle-cycle skipping must leave every modeled output of a driver exactly as
// the per-edge clock produces it, and the driver-core pins hold every modeled
// output of all three drivers to committed goldens. The shared request
// encoder rejects payloads it cannot carry.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/driver/baselines.h"
#include "src/driver/hybrid.h"
#include "src/driver/mfd.h"
#include "src/driver/resources.h"
#include "src/driver/supervisor.h"
#include "src/i2c/stack.h"
#include "src/sim/fleet.h"

namespace efeu::driver {
namespace {

HybridConfig MakeConfig(SplitPoint split, bool interrupt_driven) {
  HybridConfig config;
  config.split = split;
  config.interrupt_driven = interrupt_driven;
  config.capture_waveform = true;
  // Keep the model's write cycle short so write tests stay fast.
  config.eeprom.write_cycle_ns = 50000;
  return config;
}

class HybridSplitTest : public ::testing::TestWithParam<std::tuple<SplitPoint, bool>> {};

TEST_P(HybridSplitTest, WriteThenReadBack) {
  auto [split, interrupt_driven] = GetParam();
  HybridDriver driver(MakeConfig(split, interrupt_driven));
  std::vector<uint8_t> payload = {0x42, 0x43, 0x44, 0x45};
  ASSERT_TRUE(driver.Write(0x0123, payload));
  // The device enters its internal write cycle after the STOP; wait it out
  // by reading from a different page first (NACK-while-busy is retried by
  // polling the device through fresh operations).
  std::vector<uint8_t> data;
  // Spin until the device answers again.
  int attempts = 0;
  while (!driver.Read(0x0123, 4, &data) && attempts < 100) {
    ++attempts;
  }
  ASSERT_LT(attempts, 100);
  EXPECT_EQ(data, payload);
  // Memory content matches on the device side too.
  for (size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(driver.eeprom().MemoryAt(0x0123 + static_cast<int>(i)), payload[i]);
  }
}

TEST_P(HybridSplitTest, SequentialReadOfPreloadedData) {
  auto [split, interrupt_driven] = GetParam();
  HybridDriver driver(MakeConfig(split, interrupt_driven));
  for (int i = 0; i < 14; ++i) {
    driver.eeprom().Preload(0x0200 + i, static_cast<uint8_t>(0xA0 + i));
  }
  std::vector<uint8_t> data;
  ASSERT_TRUE(driver.Read(0x0200, 14, &data));
  ASSERT_EQ(data.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(data[i], 0xA0 + i) << "byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSplits, HybridSplitTest,
    ::testing::Combine(::testing::Values(SplitPoint::kElectrical, SplitPoint::kSymbol,
                                         SplitPoint::kByte, SplitPoint::kTransaction,
                                         SplitPoint::kEepDriver),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<std::tuple<SplitPoint, bool>>& param_info) {
      return std::string(SplitPointName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_irq" : "_poll");
    });

TEST(BitBangBaseline, WriteThenReadBack) {
  TimingModel timing;
  sim::EepromConfig eeprom;
  eeprom.write_cycle_ns = 50000;
  BitBangDriver driver(timing, eeprom, /*capture_waveform=*/true);
  std::vector<uint8_t> payload = {0x11, 0x22, 0x33};
  ASSERT_TRUE(driver.Write(0x40, payload));
  std::vector<uint8_t> data;
  int attempts = 0;
  while (!driver.Read(0x40, 3, &data) && attempts < 100) {
    ++attempts;
  }
  ASSERT_LT(attempts, 100);
  EXPECT_EQ(data, payload);
}

TEST(XilinxIpBaseline, ReadsPreloadedData) {
  TimingModel timing;
  sim::EepromConfig eeprom;
  XilinxIpDriver driver(timing, eeprom, /*capture_waveform=*/true);
  for (int i = 0; i < 14; ++i) {
    driver.eeprom().Preload(i, static_cast<uint8_t>(0x30 + i));
  }
  std::vector<uint8_t> data;
  ASSERT_TRUE(driver.Read(0, 14, &data));
  ASSERT_EQ(data.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(data[i], 0x30 + i);
  }
}

// ---------------------------------------------------------------------------
// Idle-cycle skipping against the per-edge clock. A post-tick hook (waveform
// capture) makes a driver tick every edge: that run is the reference.
// ---------------------------------------------------------------------------

// Exact spelling of a modeled time: equality must hold to the last bit.
std::string Exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string Bytes(const std::vector<uint8_t>& bytes) {
  std::string out;
  for (uint8_t byte : bytes) {
    out += std::to_string(byte) + ",";
  }
  return out;
}

// Everything a supervised soak stack reports, op by op, except host time.
struct SoakOutcome {
  std::vector<std::string> ops;
  uint64_t cycles = 0;
  uint64_t ticked = 0;
};

// The fleet's soak workload (sim::Fleet) on one stack, run to the end even
// past a failed op so every op's outcome is compared.
SoakOutcome RunSoakStack(const sim::StackConfig& stack, bool full_tick,
                         std::shared_ptr<const ir::Compilation> compilation) {
  HybridConfig config = sim::Fleet::BuildStackHybridConfig(stack, std::move(compilation));
  config.capture_waveform = full_tick;
  HybridDriver driver(config);
  Supervisor<HybridDriver> supervisor(&driver);
  MfdClient<Supervisor<HybridDriver>> mfd(&supervisor, sim::MfdConfig{}.address);
  mfd.SetCellHandler(0, [](uint16_t) {});
  SoakOutcome outcome;
  auto record = [&](bool ok, const std::string& data) {
    outcome.ops.push_back(std::string(ok ? "ok " : "FAIL ") + data + " now=" +
                          Exact(driver.now_ns()) + " " +
                          FormatRecoveryCounters(supervisor.counters()) + " " +
                          monitor::FormatTripCounters(driver.MonitorCounters()) + " " +
                          HealthStateName(supervisor.health()));
  };
  const std::vector<uint8_t> payload = {0x10, 0x32, 0x54, 0x76};
  for (int op = 0; op < stack.rounds * 2; ++op) {
    const int offset = 0x0400 + 8 * (op / 2);
    if (op % 2 == 0) {
      record(supervisor.Write(offset, payload), "write");
    } else {
      std::vector<uint8_t> data;
      const bool ok = supervisor.Read(offset, static_cast<int>(payload.size()), &data);
      record(ok, Bytes(data));
    }
  }
  if (stack.stack_class == sim::StackClass::kMfd) {
    uint16_t value = 0;
    record(mfd.ReadReg(sim::kMfdRegId, &value), std::to_string(value));
    record(mfd.EnableIrqs(0xFFFF), "enable");
    record(mfd.WriteReg(sim::kMfdCellStride, 0xA5C3), "gpio");
    record(mfd.ReadReg(sim::kMfdCellStride + 1, &value), std::to_string(value));
    record(mfd.DispatchIrqs() >= 0, "dispatch");
  }
  outcome.ops.push_back(driver.fault_plan().Describe());
  outcome.cycles = driver.rtl_cycles();
  outcome.ticked = driver.rtl_cycles_ticked();
  return outcome;
}

class SoakSkipTest : public ::testing::TestWithParam<std::tuple<sim::StackClass, bool>> {};

TEST_P(SoakSkipTest, SupervisedStackMatchesPerEdgeClock) {
  auto [stack_class, interrupt_driven] = GetParam();
  DiagnosticEngine diag;
  std::shared_ptr<const ir::Compilation> compilation = i2c::CompileControllerStack(diag);
  ASSERT_NE(compilation, nullptr);
  // Seeds 1-4 reach every seed-selected schedule: seed % 3 picks the mux and
  // multi-master scripted faults, seed % 4 the mux channel.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    sim::StackConfig stack;
    stack.stack_class = stack_class;
    stack.interrupt_driven = interrupt_driven;
    stack.seed = seed;
    const SoakOutcome reference = RunSoakStack(stack, /*full_tick=*/true, compilation);
    const SoakOutcome skipping = RunSoakStack(stack, /*full_tick=*/false, compilation);
    ASSERT_EQ(skipping.ops.size(), reference.ops.size()) << "seed " << seed;
    for (size_t i = 0; i < reference.ops.size(); ++i) {
      EXPECT_EQ(skipping.ops[i], reference.ops[i]) << "seed " << seed << " op " << i;
    }
    EXPECT_EQ(skipping.cycles, reference.cycles) << "seed " << seed;
    EXPECT_EQ(reference.ticked, reference.cycles) << "seed " << seed;
    EXPECT_LT(skipping.ticked, reference.ticked) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SoakClasses, SoakSkipTest,
    ::testing::Combine(::testing::Values(sim::StackClass::kEeprom, sim::StackClass::kMuxed,
                                         sim::StackClass::kMultiMaster, sim::StackClass::kMfd),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<std::tuple<sim::StackClass, bool>>& param_info) {
      return std::string(sim::StackClassName(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_irq" : "_poll");
    });

// Every functional Fig 10 row (Electrical has no interrupt-driven row): the
// measured reads, then one more read, both ways.
TEST(IdleSkipping, Fig10RowsMatchPerEdgeClock) {
  for (SplitPoint split : {SplitPoint::kElectrical, SplitPoint::kSymbol, SplitPoint::kByte,
                           SplitPoint::kTransaction, SplitPoint::kEepDriver}) {
    for (bool interrupt_driven : {false, true}) {
      if (split == SplitPoint::kElectrical && interrupt_driven) {
        continue;
      }
      std::string results[2];
      uint64_t ticked[2] = {};
      for (int full_tick = 0; full_tick < 2; ++full_tick) {
        HybridConfig config;
        config.split = split;
        config.interrupt_driven = interrupt_driven;
        config.capture_waveform = full_tick == 1;
        HybridDriver driver(config);
        for (int i = 0; i < 14; ++i) {
          driver.eeprom().Preload(0x0300 + i, static_cast<uint8_t>(0x5A ^ i));
        }
        const DriverMetrics metrics = driver.MeasureReads(3, 14);
        std::vector<uint8_t> data;
        const bool ok = driver.Read(0x0300, 14, &data);
        results[full_tick] = std::to_string(metrics.functional) + " elapsed=" +
                             Exact(metrics.elapsed_ns) + " cpu=" + Exact(metrics.cpu_usage) +
                             " irqs=" + std::to_string(metrics.irq_count) + " instr=" +
                             std::to_string(metrics.instructions_retired) + " read=" +
                             std::to_string(ok) + " " + Bytes(data) +
                             " now=" + Exact(driver.now_ns()) +
                             " busy=" + Exact(driver.cpu_busy_ns()) +
                             " irq_total=" + std::to_string(driver.irq_count());
        ticked[full_tick] = metrics.rtl_cycles_ticked;
      }
      const std::string row =
          std::string(SplitPointName(split)) + (interrupt_driven ? " irq" : " poll");
      EXPECT_EQ(results[0], results[1]) << row;
      EXPECT_LT(ticked[0], ticked[1]) << row;
    }
  }
}

// The all-software baseline under a seeded fault plan with recovery and
// monitors: its GPIO writes, line-fault overlay steps and recovery pulses
// all land between edges.
TEST(IdleSkipping, BitBangBaselineMatchesPerEdgeClock) {
  for (uint64_t seed : {3, 7, 11, 19}) {
    std::string results[2];
    for (int full_tick = 0; full_tick < 2; ++full_tick) {
      TimingModel timing;
      sim::EepromConfig eeprom;
      eeprom.write_cycle_ns = 50000;
      RecoveryPolicy recovery;
      recovery.enabled = true;
      BitBangDriver driver(timing, eeprom, /*capture_waveform=*/full_tick == 1,
                           sim::FaultPlan::Random(seed, 0.02, 4), recovery);
      driver.EnableMonitors();
      std::string& out = results[full_tick];
      for (int round = 0; round < 3; ++round) {
        const std::vector<uint8_t> payload = {static_cast<uint8_t>(round), 0x22, 0x33};
        // Each call is its own statement: the transcript must read the clock
        // and the bytes after the operation that moves them.
        const bool written = driver.Write(0x40 + 8 * round, payload);
        out += std::to_string(written) + " now=" + Exact(driver.now_ns()) + "; ";
        std::vector<uint8_t> data;
        const bool read = driver.Read(0x40 + 8 * round, 3, &data);
        out += std::to_string(read) + " " + Bytes(data) + " now=" + Exact(driver.now_ns()) + "; ";
      }
      out += FormatRecoveryCounters(driver.recovery_counters()) + " " +
             monitor::FormatTripCounters(driver.MonitorCounters()) + " " +
             driver.fault_plan().Describe();
    }
    EXPECT_EQ(results[0], results[1]) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Driver-core pins: the modeled outputs of all three drivers, to the last bit,
// against goldens under tests/goldens (`efeu_tests --update-goldens`
// re-records them). Covers every Figure 10 row and supervised, monitored,
// faulted transcripts of each driver.
// ---------------------------------------------------------------------------

void CompareOrUpdate(const std::string& name, const std::string& generated) {
  const std::string path = std::string(EFEU_GOLDEN_DIR) + "/" + name;
  if (std::getenv("EFEU_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << generated;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run `efeu_tests --update-goldens` to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(generated, golden.str()) << "modeled driver output changed: " << name;
}

std::string MetricsLine(const DriverMetrics& metrics) {
  return std::to_string(metrics.functional) + " note=\"" + metrics.note +
         "\" khz=" + Exact(metrics.frequency.mean_khz) +
         " sd=" + Exact(metrics.frequency.stddev_khz) + " cpu=" + Exact(metrics.cpu_usage) +
         " elapsed=" + Exact(metrics.elapsed_ns) +
         " irqs=" + std::to_string(metrics.irq_count) +
         " instr=" + std::to_string(metrics.instructions_retired) +
         " bursts=" + std::to_string(metrics.mmio_bursts) +
         " coalesced=" + std::to_string(metrics.irqs_coalesced);
}

TEST(DriverCorePins, Fig10Rows) {
  TimingModel timing;
  sim::EepromConfig eeprom;
  std::string out;
  {
    BitBangDriver bitbang(timing, eeprom, /*capture_waveform=*/true);
    out += "bitbang polling " + MetricsLine(bitbang.MeasureReads(3, 14)) + "\n";
  }
  {
    XilinxIpDriver xilinx(timing, eeprom, /*capture_waveform=*/true);
    out += "xilinx interrupt " + MetricsLine(xilinx.MeasureReads(3, 14)) + "\n";
  }
  for (SplitPoint split : {SplitPoint::kElectrical, SplitPoint::kSymbol, SplitPoint::kByte,
                           SplitPoint::kTransaction, SplitPoint::kEepDriver}) {
    for (bool interrupt_driven : {false, true}) {
      HybridConfig config;
      config.split = split;
      config.interrupt_driven = interrupt_driven;
      config.capture_waveform = true;
      HybridDriver hybrid(config);
      out += std::string(SplitPointName(split)) + (interrupt_driven ? " interrupt " : " polling ") +
             MetricsLine(hybrid.MeasureReads(3, 14)) + "\n";
    }
  }
  CompareOrUpdate("driver_core_fig10.txt", out);
}

// A measurement of zero reads covers no modeled time: it reports zero CPU
// usage, not the NaN of 0 busy ns over 0 elapsed ns.
TEST(DriverCoreMeasure, ZeroReadsReportNoNaN) {
  HybridDriver driver(HybridConfig{});
  const DriverMetrics metrics = driver.MeasureReads(0, 14);
  EXPECT_TRUE(metrics.functional) << metrics.note;
  EXPECT_EQ(metrics.elapsed_ns, 0);
  EXPECT_EQ(metrics.cpu_usage, 0);
  for (double field : {metrics.cpu_usage, metrics.elapsed_ns, metrics.frequency.mean_khz,
                       metrics.frequency.stddev_khz, metrics.vm_host_seconds}) {
    EXPECT_FALSE(std::isnan(field)) << MetricsLine(metrics);
  }
}

// Supervised page writes and reads, a direct probe and a soft reset, then the
// counters, trips, fault trace and health, then a measured read burst.
// `now` reads the driver's modeled clock.
template <typename Driver, typename Now>
std::string SupervisedTranscript(Driver& driver, Now now) {
  Supervisor<Driver> sup(&driver);
  std::string out;
  for (int round = 0; round < 4; ++round) {
    const int offset = 0x40 + 16 * round;
    const std::vector<uint8_t> payload = {static_cast<uint8_t>(0x10 + round), 0x5A, 0xC3};
    const bool written = sup.Write(offset, payload);
    out += "write " + std::to_string(written) + " now=" + Exact(now()) + "\n";
    std::vector<uint8_t> data;
    const bool ok = sup.Read(offset, static_cast<int>(payload.size()), &data);
    out += "read " + std::to_string(ok) + " " + Bytes(data) + " now=" + Exact(now()) + "\n";
  }
  std::vector<uint8_t> data;
  const bool ok = sup.Read(0x40, 14, &data);
  out += "read14 " + std::to_string(ok) + " " + Bytes(data) + " now=" + Exact(now()) + "\n";
  const bool probed = driver.Probe();
  out += "probe " + std::to_string(probed) + " now=" + Exact(now()) + "\n";
  driver.SoftReset();
  out += "reset now=" + Exact(now()) + "\n";
  out += FormatRecoveryCounters(sup.counters()) + "\n" +
         monitor::FormatTripCounters(driver.MonitorCounters()) + "\n" +
         driver.fault_plan().Describe() + "\n" + HealthStateName(sup.health()) + "\n";
  const DriverMetrics metrics = driver.MeasureReads(2, 4);
  out += "measure " + MetricsLine(metrics) + " now=" + Exact(now()) + "\n";
  return out;
}

TEST(DriverCorePins, BitBangSupervisedUnderWireFaults) {
  std::string out;
  for (uint64_t seed : {3, 7, 19}) {
    TimingModel timing;
    sim::EepromConfig eeprom;
    eeprom.write_cycle_ns = 50000;
    RecoveryPolicy recovery;
    recovery.enabled = true;
    BitBangDriver driver(timing, eeprom, /*capture_waveform=*/false,
                         sim::FaultPlan::Random(seed, 0.02, 4), recovery);
    driver.EnableMonitors();
    out += "seed " + std::to_string(seed) + "\n" +
           SupervisedTranscript(driver, [&] { return driver.now_ns(); });
  }
  CompareOrUpdate("driver_core_bitbang.txt", out);
}

TEST(DriverCorePins, XilinxSupervisedUnderInterruptFaults) {
  TimingModel timing;
  sim::EepromConfig eeprom;
  eeprom.write_cycle_ns = 50000;
  sim::FaultPlan plan = sim::FaultPlan::Scripted({
      {sim::FaultKind::kSpuriousInterrupt, 0, 1},
      {sim::FaultKind::kDroppedInterrupt, 1, 1},
      {sim::FaultKind::kSpuriousInterrupt, 3, 1},
      {sim::FaultKind::kDroppedInterrupt, 5, 1},
  });
  XilinxIpDriver driver(timing, eeprom, /*capture_waveform=*/true, plan);
  driver.EnableMonitors();
  // The engine's modeled time shows as the last captured bus edge.
  const std::string out = SupervisedTranscript(driver, [&] {
    return driver.bus().samples().empty() ? 0.0 : driver.bus().samples().back().t_ns;
  });
  CompareOrUpdate("driver_core_xilinx.txt", out);
}

TEST(DriverCorePins, HybridSupervisedUnderBoundaryFaults) {
  std::string out;
  for (auto [split, interrupt_driven] :
       {std::pair{SplitPoint::kByte, false}, std::pair{SplitPoint::kTransaction, true}}) {
    for (uint64_t seed : {1, 2}) {
      HybridConfig config;
      config.split = split;
      config.interrupt_driven = interrupt_driven;
      config.eeprom.write_cycle_ns = 50000;
      config.recovery.enabled = true;
      config.enable_monitors = true;
      config.fault_plan = sim::FaultPlan::Random(seed, 0.02, 6);
      config.fault_plan.set_boundary_faults(true);
      HybridDriver driver(config);
      out += std::string(SplitPointName(split)) + (interrupt_driven ? " interrupt" : " polling") +
             " seed " + std::to_string(seed) + "\n" +
             SupervisedTranscript(driver, [&] { return driver.now_ns(); });
    }
  }
  CompareOrUpdate("driver_core_hybrid.txt", out);
}


// The retry ladder's own arithmetic: a write into the device's 5 ms write
// cycle NACKs until the per-operation deadline stops the doubling backoff.
TEST(DriverCorePins, LadderBacksOffUntilTheDeadline) {
  RecoveryPolicy recovery;
  recovery.enabled = true;
  recovery.op_deadline_ns = 1e6;
  sim::EepromConfig eeprom;
  std::string out;
  {
    HybridConfig config;
    config.recovery = recovery;
    config.eeprom = eeprom;
    HybridDriver driver(config);
    const bool first = driver.Write(0x20, {0x01, 0x02});
    const bool second = driver.Write(0x20, {0x03, 0x04});
    out += "hybrid " + std::to_string(first) + std::to_string(second) +
           " status=" + std::to_string(driver.last_status()) + " now=" + Exact(driver.now_ns()) +
           " " + FormatRecoveryCounters(driver.recovery_counters()) + "\n";
  }
  {
    BitBangDriver driver(TimingModel{}, eeprom, /*capture_waveform=*/false, {}, recovery);
    const bool first = driver.Write(0x20, {0x01, 0x02});
    const bool second = driver.Write(0x20, {0x03, 0x04});
    out += "bitbang " + std::to_string(first) + std::to_string(second) +
           " status=" + std::to_string(driver.last_status()) + " now=" + Exact(driver.now_ns()) +
           " " + FormatRecoveryCounters(driver.recovery_counters()) + "\n";
  }
  CompareOrUpdate("driver_core_ladder.txt", out);
}

// The request encoder carries at most 14 payload bytes (two offset bytes share
// the 16-byte transaction payload). A longer write is API misuse: it stops
// the program in every build type instead of overrunning the request.
TEST(DriverCoreDeathTest, HybridRejectsFifteenByteWrite) {
  HybridDriver driver(HybridConfig{});
  EXPECT_DEATH(driver.Write(0, std::vector<uint8_t>(15, 0x5A)),
               "write payload outside 1\\.\\.14 bytes");
}

TEST(DriverCoreDeathTest, BitBangRejectsFifteenByteWrite) {
  BitBangDriver driver(TimingModel{}, sim::EepromConfig{});
  EXPECT_DEATH(driver.Write(0, std::vector<uint8_t>(15, 0x5A)),
               "write payload outside 1\\.\\.14 bytes");
}

}  // namespace
}  // namespace efeu::driver
