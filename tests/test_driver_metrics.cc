// Higher-level driver properties: the paper's performance orderings hold in
// the co-simulation, interrupts reduce CPU usage, multiple devices on one
// bus stay isolated, and waveform capture feeds the measurement pipeline.

#include <gtest/gtest.h>

#include "src/driver/baselines.h"
#include "src/driver/hybrid.h"

namespace efeu::driver {
namespace {

DriverMetrics Measure(SplitPoint split, bool interrupt_driven, int ops = 2) {
  HybridConfig config;
  config.split = split;
  config.interrupt_driven = interrupt_driven;
  config.capture_waveform = true;
  HybridDriver driver(config);
  return driver.MeasureReads(ops, 14);
}

TEST(DriverMetrics, BusSpeedRisesMonotonicallyWithSplitPoint) {
  // Paper Figure 10 (top), polling drivers.
  double previous = 0;
  for (SplitPoint split : {SplitPoint::kElectrical, SplitPoint::kSymbol, SplitPoint::kByte,
                           SplitPoint::kTransaction, SplitPoint::kEepDriver}) {
    DriverMetrics metrics = Measure(split, /*interrupt_driven=*/false);
    ASSERT_TRUE(metrics.functional) << SplitPointName(split);
    EXPECT_GT(metrics.frequency.mean_khz, previous) << SplitPointName(split);
    previous = metrics.frequency.mean_khz;
  }
  // The top of the ladder approaches the 400 kHz Fast Mode target.
  EXPECT_GT(previous, 390.0);
}

TEST(DriverMetrics, PollingPinsOneCore) {
  for (SplitPoint split : {SplitPoint::kElectrical, SplitPoint::kByte, SplitPoint::kEepDriver}) {
    DriverMetrics metrics = Measure(split, /*interrupt_driven=*/false);
    EXPECT_NEAR(metrics.cpu_usage, 1.0, 0.01) << SplitPointName(split);
  }
}

TEST(DriverMetrics, InterruptCpuFallsMonotonically) {
  // Paper Figure 10 (bottom): Symbol > Byte > Transaction > EepDriver.
  double previous = 2.0;
  for (SplitPoint split : {SplitPoint::kSymbol, SplitPoint::kByte, SplitPoint::kTransaction,
                           SplitPoint::kEepDriver}) {
    DriverMetrics metrics = Measure(split, /*interrupt_driven=*/true);
    ASSERT_TRUE(metrics.functional) << SplitPointName(split);
    EXPECT_LT(metrics.cpu_usage, previous) << SplitPointName(split);
    previous = metrics.cpu_usage;
  }
  EXPECT_LT(previous, 0.06);  // EepDriver: a few percent, below the Xilinx IP
}

TEST(DriverMetrics, ByteSplitHasTheLargestSpread) {
  // The distinctive Figure 10 feature: the Byte split's boundary crossing
  // lands between the bytes of a transfer, producing a large standard
  // deviation relative to its neighbors.
  DriverMetrics symbol = Measure(SplitPoint::kSymbol, false);
  DriverMetrics byte = Measure(SplitPoint::kByte, false);
  DriverMetrics eep = Measure(SplitPoint::kEepDriver, false);
  EXPECT_GT(byte.frequency.stddev_khz, symbol.frequency.stddev_khz);
  EXPECT_GT(byte.frequency.stddev_khz, eep.frequency.stddev_khz);
}

TEST(DriverMetrics, InterruptElectricalDoesNotFunction) {
  DriverMetrics metrics = Measure(SplitPoint::kElectrical, /*interrupt_driven=*/true, 1);
  EXPECT_FALSE(metrics.functional);
  EXPECT_NE(metrics.note.find("interrupt"), std::string::npos);
}

TEST(DriverMetrics, InterruptModeCountsInterrupts) {
  DriverMetrics metrics = Measure(SplitPoint::kTransaction, /*interrupt_driven=*/true, 2);
  // Three transaction-level round trips per EEPROM read (offset write, data
  // read, stop): one interrupt each.
  EXPECT_EQ(metrics.irq_count, 6u);
}

TEST(DriverMetrics, BaselinesBracketTheGeneratedDrivers) {
  TimingModel timing;
  sim::EepromConfig eeprom;
  BitBangDriver bitbang(timing, eeprom, true);
  XilinxIpDriver xilinx(timing, eeprom, true);
  DriverMetrics bb = bitbang.MeasureReads(2, 14);
  DriverMetrics xi = xilinx.MeasureReads(2, 14);
  DriverMetrics electrical = Measure(SplitPoint::kElectrical, false);
  DriverMetrics eep = Measure(SplitPoint::kEepDriver, false);
  ASSERT_TRUE(bb.functional);
  ASSERT_TRUE(xi.functional);
  // Bit-banging and the Electrical split are comparable and far below target.
  EXPECT_LT(bb.frequency.mean_khz, 220.0);
  EXPECT_NEAR(electrical.frequency.mean_khz, bb.frequency.mean_khz,
              0.25 * bb.frequency.mean_khz);
  // The all-hardware driver matches (or slightly exceeds) the Xilinx IP.
  EXPECT_GT(eep.frequency.mean_khz, xi.frequency.mean_khz - 5.0);
  // The IP's interrupt-driven CPU usage sits near the paper's 12%.
  EXPECT_NEAR(xi.cpu_usage, 0.12, 0.05);
}

TEST(MultiDevice, TwoEepromsAreIsolated) {
  HybridConfig config;
  config.split = SplitPoint::kByte;
  config.interrupt_driven = true;
  config.eeprom.address = 0x50;
  config.eeprom.write_cycle_ns = 20000;
  sim::EepromConfig second;
  second.address = 0x51;
  second.write_cycle_ns = 20000;
  config.extra_eeproms.push_back(second);
  HybridDriver driver(config);

  ASSERT_TRUE(driver.WriteTo(0x50, 0x10, {0xAA}));
  ASSERT_TRUE(driver.WriteTo(0x51, 0x10, {0xBB}));
  EXPECT_EQ(driver.eeprom().MemoryAt(0x10), 0xAA);
  EXPECT_EQ(driver.extra_eeprom(0).MemoryAt(0x10), 0xBB);
  // Wait out both write cycles via retries, then read both back.
  std::vector<uint8_t> data;
  int attempts = 0;
  while (!driver.ReadFrom(0x50, 0x10, 1, &data) && attempts++ < 500) {
  }
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0xAA);
  attempts = 0;
  while (!driver.ReadFrom(0x51, 0x10, 1, &data) && attempts++ < 500) {
  }
  EXPECT_EQ(data[0], 0xBB);
}

TEST(MultiDevice, UnpopulatedAddressNacks) {
  HybridConfig config;
  config.split = SplitPoint::kTransaction;
  HybridDriver driver(config);
  std::vector<uint8_t> data;
  EXPECT_FALSE(driver.ReadFrom(0x31, 0, 1, &data));
  // The bus remains usable afterwards.
  driver.eeprom().Preload(0, 0x77);
  ASSERT_TRUE(driver.ReadFrom(0x50, 0, 1, &data));
  EXPECT_EQ(data[0], 0x77);
}

TEST(DriverAblation, FixedHoldAdapterLowersTheCeiling) {
  HybridConfig config;
  config.split = SplitPoint::kEepDriver;
  config.capture_waveform = true;
  HybridDriver fast(config);
  config.ablate_fixed_hold_adapter = true;
  HybridDriver slow(config);
  DriverMetrics fast_metrics = fast.MeasureReads(2, 14);
  DriverMetrics slow_metrics = slow.MeasureReads(2, 14);
  EXPECT_GT(fast_metrics.frequency.mean_khz, slow_metrics.frequency.mean_khz + 30.0);
}

TEST(DriverAblation, NoAutoResetBreaksTheDriver) {
  HybridConfig config;
  config.split = SplitPoint::kSymbol;
  config.ablate_no_auto_reset = true;
  HybridDriver driver(config);
  driver.eeprom().Preload(0, 0x5A);
  std::vector<uint8_t> data;
  EXPECT_FALSE(driver.Read(0, 1, &data) && data.size() == 1 && data[0] == 0x5A);
}

}  // namespace

// ---------------------------------------------------------------------------
// Boundary batching and interrupt coalescing
// ---------------------------------------------------------------------------

// MMIO bursts change the modeled cost of boundary crossings, never the data:
// reads return identical bytes and the bus keeps its protocol timing, while
// every multi-word crossing is counted as a burst.
TEST(DriverBatching, MmioBurstsPreserveDataAndCount) {
  HybridConfig config;
  config.split = SplitPoint::kByte;
  // Keep the model's write cycle short so the ack-poll below stays bounded.
  config.eeprom.write_cycle_ns = 50000;
  HybridConfig burst_config = config;
  burst_config.mmio_bursts = true;

  HybridDriver plain(config);
  HybridDriver burst(burst_config);
  std::vector<uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  ASSERT_TRUE(plain.Write(32, payload));
  ASSERT_TRUE(burst.Write(32, payload));
  // Ack-poll the device through its internal write cycle.
  std::vector<uint8_t> a;
  std::vector<uint8_t> b;
  int attempts = 0;
  while (!plain.Read(32, 5, &a) && attempts < 100) {
    ++attempts;
  }
  ASSERT_LT(attempts, 100);
  attempts = 0;
  while (!burst.Read(32, 5, &b) && attempts < 100) {
    ++attempts;
  }
  ASSERT_LT(attempts, 100);
  EXPECT_EQ(a, payload);
  EXPECT_EQ(b, payload);
  EXPECT_EQ(plain.mmio_bursts(), 0u);
  EXPECT_GT(burst.mmio_bursts(), 0u);
}

// Bursting the boundary reduces the software's share of each crossing, so
// the measured bus frequency can only improve at software-paced splits.
TEST(DriverBatching, MmioBurstsDoNotSlowTheBus) {
  // kTransaction crosses 19/18-word messages, kByte 2/2-word ones; kSymbol's
  // single-word boundary has nothing to burst, so its counter must stay zero.
  for (SplitPoint split :
       {SplitPoint::kTransaction, SplitPoint::kByte, SplitPoint::kSymbol}) {
    HybridConfig config;
    config.split = split;
    config.capture_waveform = true;
    DriverMetrics plain = HybridDriver(config).MeasureReads(2, 14);
    config.mmio_bursts = true;
    DriverMetrics burst = HybridDriver(config).MeasureReads(2, 14);
    ASSERT_TRUE(plain.functional && burst.functional) << SplitPointName(split);
    EXPECT_GE(burst.frequency.mean_khz, plain.frequency.mean_khz * 0.999)
        << SplitPointName(split);
    if (split == SplitPoint::kSymbol) {
      EXPECT_EQ(burst.mmio_bursts, 0u);
    } else {
      EXPECT_GT(burst.mmio_bursts, 0u) << SplitPointName(split);
    }
  }
}

// With a drain window armed, back-to-back up-messages at a chatty split ride
// one interrupt: the IRQ count drops and the coalesced counter accounts for
// the difference in deliveries.
TEST(DriverBatching, IrqCoalescingReducesInterrupts) {
  HybridConfig config;
  config.split = SplitPoint::kByte;
  config.interrupt_driven = true;
  DriverMetrics plain = HybridDriver(config).MeasureReads(2, 14);
  config.irq_coalesce_window_ns = 40000.0;  // ~2 byte times at 400 kHz
  DriverMetrics coalesced = HybridDriver(config).MeasureReads(2, 14);
  ASSERT_TRUE(plain.functional && coalesced.functional);
  EXPECT_EQ(plain.irqs_coalesced, 0u);
  EXPECT_GT(coalesced.irqs_coalesced, 0u);
  EXPECT_LT(coalesced.irq_count, plain.irq_count);
}

}  // namespace efeu::driver
