// Unit tests for the RTL substrate and the platform simulation: handshake
// wires between clocked FSMs, the MMIO register file's auto-reset semantics,
// the deadline-paced bus adapter, the open-drain bus, the 24AA512 model, the
// waveform analysis, the Xilinx IP engine, and idle-cycle skipping against
// the per-edge clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/compile.h"
#include "src/monitor/bus_watcher.h"
#include "src/rtl/regfile.h"
#include "src/rtl/rtl_module.h"
#include "src/rtl/system.h"
#include "src/sim/bus_adapter.h"
#include "src/sim/eeprom.h"
#include "src/sim/fault_plan.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/mux.h"
#include "src/sim/regfile_device.h"
#include "src/sim/second_master.h"
#include "src/sim/waveform.h"
#include "src/sim/xilinx_ip.h"

namespace efeu {
namespace {

// ---------------------------------------------------------------------------
// I2C bus
// ---------------------------------------------------------------------------

TEST(I2cBus, WiredAndSemantics) {
  sim::I2cBus bus;
  int a = bus.AddDriver();
  int b = bus.AddDriver();
  EXPECT_TRUE(bus.scl());
  EXPECT_TRUE(bus.sda());
  bus.SetDriver(a, true, false);
  EXPECT_TRUE(bus.scl());
  EXPECT_FALSE(bus.sda());
  bus.SetDriver(b, false, true);
  EXPECT_FALSE(bus.scl());
  EXPECT_FALSE(bus.sda());
  bus.SetDriver(a, true, true);
  EXPECT_FALSE(bus.scl());
  EXPECT_TRUE(bus.sda());
}

TEST(I2cBus, CaptureRecordsOnlyChanges) {
  sim::I2cBus bus;
  int d = bus.AddDriver();
  bus.EnableCapture(true);
  bus.Capture(0);
  bus.Capture(10);  // no change: not recorded
  bus.SetDriver(d, false, true);
  bus.Capture(20);
  ASSERT_EQ(bus.samples().size(), 2u);
  EXPECT_EQ(bus.samples()[1].t_ns, 20);
  EXPECT_FALSE(bus.samples()[1].scl);
}

// ---------------------------------------------------------------------------
// Waveform analysis
// ---------------------------------------------------------------------------

TEST(Waveform, EdgeDetectionAndFrequency) {
  std::vector<sim::I2cBus::Sample> samples;
  // A clean 400 kHz clock: edges every 1250 ns.
  bool level = true;
  double t = 0;
  samples.push_back({0, true, true});
  for (int i = 0; i < 20; ++i) {
    t += 1250;
    level = !level;
    samples.push_back({t, level, true});
  }
  auto rising = sim::SclRisingEdges(samples);
  EXPECT_EQ(rising.size(), 10u);
  sim::FrequencyStats stats = sim::AnalyzeSclFrequency(samples);
  EXPECT_NEAR(stats.mean_khz, 400.0, 0.5);
  EXPECT_NEAR(stats.stddev_khz, 0.0, 0.01);
}

TEST(Waveform, AsciiRendering) {
  std::vector<sim::I2cBus::Sample> samples = {{0, true, true}, {500, false, true}};
  std::string art = sim::RenderAsciiWaveform(samples, 1000, 10);
  EXPECT_NE(art.find("SCL #####_____"), std::string::npos);
  EXPECT_NE(art.find("SDA ##########"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RtlModule handshake between two generated FSMs
// ---------------------------------------------------------------------------

// A talks to B twice and halts; B doubles every request, forever.
std::unique_ptr<ir::Compilation> CompileTwoModules(DiagnosticEngine& diag) {
  return ir::Compile(
      "layer A; layer B; interface <A, B> { => { i32 v; }, <= { i32 r; } };",
      R"esm(
void A() {
  BToA r;
  r = ATalkB(21);
  r = ATalkB(r.r);
}
void B() {
  AToB q;
  end_init:
  q = BReadA();
  end_reply:
  q = BTalkA(q.v * 2);
  goto end_reply;
}
)esm",
      diag);
}

TEST(RtlModule, TwoModulesHandshakeOverWires) {
  DiagnosticEngine diag;
  auto comp = CompileTwoModules(diag);
  ASSERT_NE(comp, nullptr) << diag.RenderAll();

  rtl::RtlSystem system;
  rtl::RtlModule a(comp->FindModule("A"), "A");
  rtl::RtlModule b(comp->FindModule("B"), "B");
  const esi::ChannelInfo* to_b = comp->system().FindChannel("A", "B");
  const esi::ChannelInfo* to_a = comp->system().FindChannel("B", "A");
  rtl::HsWire* down = system.CreateWire(to_b->flat_size);
  rtl::HsWire* up = system.CreateWire(to_a->flat_size);
  a.BindPort(a.module().FindPort(to_b, true), down);
  a.BindPort(a.module().FindPort(to_a, false), up);
  b.BindPort(b.module().FindPort(to_b, false), down);
  b.BindPort(b.module().FindPort(to_a, true), up);
  system.AddComponent(&a);
  system.AddComponent(&b);

  for (int i = 0; i < 200 && !a.halted(); ++i) {
    system.Tick();
  }
  EXPECT_TRUE(a.halted());
  // The second talk sent 42 down; B is parked waiting for the next request.
  EXPECT_FALSE(b.halted());
}

// ---------------------------------------------------------------------------
// MMIO register file semantics
// ---------------------------------------------------------------------------

TEST(Regfile, AutoResetDeliversExactlyOnce) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  system.AddComponent(&regfile);

  regfile.WriteDownWord(0, 77);
  regfile.SetDownValid();
  // Nobody ready yet: valid stays pending.
  system.Tick();
  system.Tick();
  EXPECT_TRUE(regfile.DownPending());
  EXPECT_TRUE(down->valid);
  // Peer asserts ready: one transfer, then the flag auto-resets.
  down->ready = true;
  system.Tick();
  system.Tick();
  down->ready = false;
  system.Tick();
  EXPECT_FALSE(regfile.DownPending());
  EXPECT_FALSE(down->valid);
  EXPECT_EQ(down->data[0], 77);
}

TEST(Regfile, UpLatchRaisesIrqOnceArmed) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  system.AddComponent(&regfile);

  // Hardware offers a message; not armed yet: nothing happens.
  up->valid = true;
  up->data[0] = 9;
  system.Tick();
  system.Tick();
  EXPECT_FALSE(regfile.UpFull());
  // Arm, then the packet lands, ready auto-resets, irq raises.
  regfile.ArmUp();
  for (int i = 0; i < 4; ++i) {
    system.Tick();
  }
  EXPECT_TRUE(regfile.UpFull());
  EXPECT_TRUE(regfile.irq());
  EXPECT_FALSE(up->ready);  // auto-reset: no second packet can land
  EXPECT_EQ(regfile.ReadUpWord(0), 9);
  regfile.ConsumeUp();
  EXPECT_FALSE(regfile.irq());
}

TEST(Regfile, AblatedAutoResetRedelivers) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  regfile.set_disable_auto_reset(true);
  system.AddComponent(&regfile);

  regfile.WriteDownWord(0, 5);
  regfile.SetDownValid();
  down->ready = true;
  for (int i = 0; i < 4; ++i) {
    system.Tick();
  }
  // Without the auto-reset the message stays published: double delivery.
  EXPECT_TRUE(down->valid);
  EXPECT_TRUE(regfile.DownPending());
}

// ---------------------------------------------------------------------------
// Bus adapter pacing
// ---------------------------------------------------------------------------

TEST(BusAdapter, HoldsLevelsForHalfCycle) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::BusAdapter adapter(&bus, /*half_cycle_ticks=*/50);
  rtl::HsWire* down = system.CreateWire(2);
  rtl::HsWire* up = system.CreateWire(2);
  adapter.BindDown(down);
  adapter.BindUp(up);
  system.AddComponent(&adapter);

  // Offer (scl=0, sda=1).
  down->data = {0, 1};
  down->valid = true;
  up->ready = true;
  uint64_t start = system.cycles();
  // Run until the adapter answers with the sample.
  int guard = 0;
  while (!up->valid && guard++ < 500) {
    system.Tick();
  }
  ASSERT_TRUE(up->valid);
  // The sample reflects the driven levels.
  EXPECT_EQ(up->data[0], 0);
  EXPECT_EQ(up->data[1], 1);
  EXPECT_FALSE(bus.scl());
  // A full (late-requester) half cycle elapsed.
  EXPECT_GE(system.cycles() - start, 50u);
}

// ---------------------------------------------------------------------------
// EEPROM model driven by the Xilinx IP engine (bit-level cross-check)
// ---------------------------------------------------------------------------

TEST(Eeprom, XilinxEngineReadsAndWrites) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.write_cycle_ns = 1000;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartWrite(0x50, 0x0123, {0xAA, 0xBB, 0xCC});
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_FALSE(engine.ack_failure());
  EXPECT_EQ(eeprom.MemoryAt(0x0123), 0xAA);
  EXPECT_EQ(eeprom.MemoryAt(0x0125), 0xCC);
  EXPECT_TRUE(eeprom.busy());
  while (eeprom.busy()) {
    system.Tick();
  }

  engine.StartRead(0x50, 0x0123, 3);
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_FALSE(engine.ack_failure());
  ASSERT_EQ(engine.read_data().size(), 3u);
  EXPECT_EQ(engine.read_data()[0], 0xAA);
  EXPECT_EQ(engine.read_data()[2], 0xCC);
}

TEST(Eeprom, NacksWrongAddress) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartRead(0x31, 0, 1);  // nobody home at 0x31
  while (!engine.done()) {
    system.Tick();
  }
  EXPECT_TRUE(engine.ack_failure());
}

TEST(Eeprom, NacksWhileBusy) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.write_cycle_ns = 1e6;  // long write cycle
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartWrite(0x50, 0, {1});
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_TRUE(eeprom.busy());
  engine.StartRead(0x50, 0, 1);
  while (!engine.done()) {
    system.Tick();
  }
  EXPECT_TRUE(engine.ack_failure());  // device stops responding while busy
}

TEST(Eeprom, SequentialReadWrapsPointer) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.memory_bytes = 256;  // wrap quickly
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);
  eeprom.Preload(254, 0x11);
  eeprom.Preload(255, 0x22);
  eeprom.Preload(0, 0x33);

  engine.StartRead(0x50, 254, 3);
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_EQ(engine.read_data().size(), 3u);
  EXPECT_EQ(engine.read_data()[0], 0x11);
  EXPECT_EQ(engine.read_data()[1], 0x22);
  EXPECT_EQ(engine.read_data()[2], 0x33);
}

TEST(Eeprom, PageWriteWrapsWithinPage) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.page_bytes = 4;
  config.write_cycle_ns = 100;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  // Write 6 bytes starting at offset 2 of a 4-byte page: wraps to offset 0.
  engine.StartWrite(0x50, 2, {1, 2, 3, 4, 5, 6});
  while (!engine.done()) {
    system.Tick();
  }
  // Pointer sequence: 2,3,0,1,2,3 — the later bytes overwrite the earlier
  // ones after wrapping within the page, as on the real device.
  EXPECT_EQ(eeprom.MemoryAt(0), 3);
  EXPECT_EQ(eeprom.MemoryAt(1), 4);
  EXPECT_EQ(eeprom.MemoryAt(2), 5);
  EXPECT_EQ(eeprom.MemoryAt(3), 6);
}

// ---------------------------------------------------------------------------
// Idle-cycle skipping against the per-edge clock
// ---------------------------------------------------------------------------

TEST(RtlSystem, LandingCyclesMatchPerEdgeLoops) {
  for (double clock_ns : {10.0, 3.3, 0.7, 1.0 / 3.0}) {
    for (double target : {0.0, 5.0, 10.0, 99.99, 100.0, 1234.5, 1e5 + 0.1, 2e5}) {
      rtl::RtlSystem reference(clock_ns);
      while (reference.time_ns() < target) {
        reference.Tick();
      }
      // No components: every edge is idle, so the whole span is one jump.
      rtl::RtlSystem skipping(clock_ns);
      skipping.TickUntil(target);
      EXPECT_EQ(skipping.cycles(), reference.cycles()) << clock_ns << " ns, " << target;
      EXPECT_EQ(skipping.cycles_ticked(), 0u);

      rtl::RtlSystem timeout(clock_ns);
      do {
        timeout.Tick();
      } while (!(timeout.time_ns() > target));
      EXPECT_EQ(rtl::RtlSystem(clock_ns).CycleAfter(target), timeout.cycles())
          << clock_ns << " ns, " << target;
    }
  }
}

// A component without the hooks keeps the default IdleCycles() = 0.
class AlwaysBusy : public rtl::RtlComponent {
 public:
  void Evaluate() override {}
  void Commit() override {}
};

TEST(RtlSystem, HookOrHooklessComponentTicksEveryEdge) {
  rtl::RtlSystem hooked;
  int calls = 0;
  hooked.SetPostTickHook([&calls](double) { ++calls; });
  hooked.TickUntil(1000);
  EXPECT_EQ(hooked.cycles(), 100u);
  EXPECT_EQ(hooked.cycles_ticked(), 100u);
  EXPECT_EQ(calls, 100);

  rtl::RtlSystem busy;
  AlwaysBusy component;
  busy.AddComponent(&component);
  busy.TickUntil(1000);
  EXPECT_EQ(busy.cycles_ticked(), 100u);
}

// Idle until edge 50, whose Evaluate raises a shared level in the middle of
// the edge, the way the bus adapter's sampling edge steps the line faults.
class MidEdgeFlipper : public rtl::RtlComponent {
 public:
  explicit MidEdgeFlipper(bool* level) : level_(level) {}
  void Evaluate() override {
    if (edge_ == 50) {
      *level_ = true;
    }
    ++edge_;
  }
  void Commit() override {}
  uint64_t IdleCycles() const override {
    return edge_ < 50 ? 50 - edge_ : (edge_ == 50 ? 0 : rtl::kIdleForever);
  }
  void AdvanceIdle(uint64_t edges) override { edge_ += edges; }

 private:
  bool* level_;
  uint64_t edge_ = 0;
};

// Idle until it sees the level; records the edge on which it first does.
class LevelWatcher : public rtl::RtlComponent {
 public:
  explicit LevelWatcher(const bool* level) : level_(level) {}
  void Evaluate() override {
    if (*level_ && seen_at_ == 0) {
      seen_at_ = edge_;
    }
    ++edge_;
  }
  void Commit() override {}
  uint64_t IdleCycles() const override {
    return *level_ && seen_at_ == 0 ? 0 : rtl::kIdleForever;
  }
  void AdvanceIdle(uint64_t edges) override { edge_ += edges; }
  uint64_t seen_at() const { return seen_at_; }

 private:
  const bool* level_;
  uint64_t edge_ = 0;
  uint64_t seen_at_ = 0;
};

// A component after the one that moves an input in the middle of an edge is
// judged from that input as its own Evaluate would see it: on the same edge.
TEST(RtlSystem, MidEdgeChangeIsSeenOnTheSameEdge) {
  for (bool hook : {false, true}) {
    bool level = false;
    MidEdgeFlipper flipper(&level);
    LevelWatcher watcher(&level);
    rtl::RtlSystem system;
    system.AddComponent(&flipper);
    system.AddComponent(&watcher);
    if (hook) {
      system.SetPostTickHook([](double) {});
    }
    system.Advance(100);
    EXPECT_EQ(watcher.seen_at(), 50u) << "hook " << hook;
    EXPECT_EQ(system.cycles(), 100u);
  }
}

// Flips a signal on every edge, in its Commit.
class Toggler : public rtl::RtlComponent {
 public:
  explicit Toggler(bool* signal) : signal_(signal) {}
  void Evaluate() override { next_ = !*signal_; }
  void Commit() override { *signal_ = next_; }

 private:
  bool* signal_;
  bool next_ = false;
};

// Parked for good; records every hook call and the signal each advance sees.
class Parked : public rtl::RtlComponent {
 public:
  explicit Parked(const bool* signal) : signal_(signal) {}
  void Evaluate() override { ++evaluates; }
  void Commit() override { ++commits; }
  uint64_t IdleCycles() const override { return rtl::kIdleForever; }
  void AdvanceIdle(uint64_t edges) override {
    advances.push_back(edges);
    seen.push_back(*signal_);
  }

  int evaluates = 0;
  int commits = 0;
  std::vector<uint64_t> advances;
  std::vector<bool> seen;

 private:
  const bool* signal_;
};

// On a ticked edge the parked components on either side of the busy one are
// neither evaluated nor committed: each advances by one edge, before the
// busy component's Commit moves the signal.
TEST(RtlSystem, TickEvaluatesOnlyBusyComponents) {
  bool signal = false;
  Parked before(&signal);
  Toggler toggler(&signal);
  Parked after(&signal);
  rtl::RtlSystem system;
  system.AddComponent(&before);
  system.AddComponent(&toggler);
  system.AddComponent(&after);
  system.Advance(10);
  EXPECT_EQ(system.cycles_ticked(), 10u);
  const std::vector<bool> before_commit = {false, true, false, true, false,
                                           true,  false, true, false, true};
  for (const Parked* parked : {&before, &after}) {
    EXPECT_EQ(parked->evaluates, 0);
    EXPECT_EQ(parked->commits, 0);
    EXPECT_EQ(parked->advances, std::vector<uint64_t>(10, 1));
    EXPECT_EQ(parked->seen, before_commit);
  }
}

// The generated-FSM hook with no busy peer to cover for it: one module of
// the two-module spec alone in its clock domain, the test playing the other
// module on the wires between edges. Handshake entry, wait, transfer,
// de-assert and halt edges must come out as the per-edge clock has them.
TEST(IdleSkipping, LoneRtlModuleMatchesPerEdgeClock) {
  DiagnosticEngine diag;
  auto comp = CompileTwoModules(diag);
  ASSERT_NE(comp, nullptr) << diag.RenderAll();
  const esi::ChannelInfo* to_b = comp->system().FindChannel("A", "B");
  const esi::ChannelInfo* to_a = comp->system().FindChannel("B", "A");
  for (const char* layer : {"A", "B"}) {
    const bool is_a = layer[0] == 'A';
    std::vector<std::string> runs[2];
    for (int skip = 0; skip < 2; ++skip) {
      rtl::RtlSystem system;
      rtl::RtlModule module(comp->FindModule(layer), layer);
      rtl::HsWire* down = system.CreateWire(to_b->flat_size);
      rtl::HsWire* up = system.CreateWire(to_a->flat_size);
      module.BindPort(module.module().FindPort(to_b, /*is_send=*/is_a), down);
      module.BindPort(module.module().FindPort(to_a, /*is_send=*/!is_a), up);
      system.AddComponent(&module);
      // The wire the test sends on, and the one it receives from.
      rtl::HsWire* in = is_a ? up : down;
      rtl::HsWire* out = is_a ? down : up;
      auto advance = [&](uint64_t edges) {
        const uint64_t end = system.cycles() + edges;
        while (system.cycles() < end) {
          if (skip == 1) {
            system.Step(end - system.cycles());
          } else {
            system.Tick();
          }
        }
        std::string state = std::to_string(system.cycles());
        for (const rtl::HsWire* wire : {down, up}) {
          state += " " + std::to_string(wire->valid) + std::to_string(wire->ready) + ":" +
                   std::to_string(wire->data[0]);
        }
        for (int32_t slot : module.frame()) {
          state += " " + std::to_string(slot);
        }
        state += " busy=" + std::to_string(module.busy_cycles()) +
                 " halted=" + std::to_string(module.halted());
        runs[skip].push_back(state);
      };
      advance(20);
      for (int32_t value : {21, 5, 9}) {
        in->data[0] = value;  // offer a message...
        in->valid = true;
        advance(3);
        in->valid = false;
        advance(10);
        out->ready = true;  // ...and take the answer
        advance(3);
        out->ready = false;
        advance(40);
      }
    }
    EXPECT_EQ(runs[1], runs[0]) << "module " << layer;
  }
}

// A hand-built platform holding every component with idle hooks: bus adapter
// and MMIO register file at the Electrical split, a second master and a
// three-channel mux on the controller's bus, an EEPROM and an MFD behind
// channel 0, another EEPROM on channel 1, and a bus watcher. Channel 2 has
// no modeled device, only a driver the test pulls like a stuck peripheral,
// so nothing but the mux's pass gates notices it. The test plays the
// software side between edges (register accesses, a recovery-style bus
// driver, soft resets). The reference world ticks every edge; the other one
// steps, jumping idle spans. Both record the bus after every step, which in
// the skipping world sees every change because a jump changes no line.
class SkipWorld {
 public:
  explicit SkipWorld(bool full_tick)
      : full_tick_(full_tick),
        adapter_(&bus_, /*half_cycle_ticks=*/50),
        second_(&bus_, MasterConfig()),
        mux_(&bus_, {&chan0_, &chan1_, &chan2_}, sim::MuxConfig{0x70, 3}),
        eeprom_(&chan0_, DeviceConfig(0x50)),
        mfd_(&chan0_, sim::MfdConfig{}),
        eeprom1_(&chan1_, DeviceConfig(0x51)),
        regfile_(2, 2),
        watcher_(&bus_, &regfile_, monitor::BusWatcherOptions{1500, 3000}),
        test_driver_(bus_.AddDriver()),
        chan2_driver_(chan2_.AddDriver()) {
    down_ = system_.CreateWire(2);
    up_ = system_.CreateWire(2);
    adapter_.BindDown(down_);
    adapter_.BindUp(up_);
    regfile_.BindDown(down_);
    regfile_.BindUp(up_);
    // Arbitration loss at the eighth START; a refused data byte and an SDA
    // stuck-low burst in the final read.
    plan_ = sim::FaultPlan::Scripted({{sim::FaultKind::kArbitrationLoss, 7, 1},
                                      {sim::FaultKind::kNackOnData, 14, 1},
                                      {sim::FaultKind::kSdaStuckLow, 900, 2}});
    adapter_.SetFaultPlan(&plan_);
    second_.SetFaultPlan(&plan_);
    mux_.SetFaultPlan(&plan_);
    eeprom_.SetFaultPlan(&plan_);
    mfd_.SetFaultPlan(&plan_);
    for (rtl::RtlComponent* component : std::vector<rtl::RtlComponent*>{
             &adapter_, &second_, &mux_, &eeprom_, &mfd_, &eeprom1_, &regfile_, &watcher_}) {
      system_.AddComponent(component);
    }
    for (sim::I2cBus* bus : {&bus_, &chan0_, &chan1_, &chan2_}) {
      bus->EnableCapture(true);
    }
    Settle(320);
  }

  // -- Clocking: per edge, or stepping -------------------------------------
  void SyncTo(double target_ns) {
    if (full_tick_) {
      while (system_.time_ns() < target_ns) {
        system_.Tick();
        Capture();
      }
      return;
    }
    const uint64_t end = system_.CycleReaching(target_ns);
    while (system_.cycles() < end) {
      system_.Step(end - system_.cycles());
      Capture();
    }
  }
  // Interrupt-style wait: false when the deadline passes first.
  bool WaitIrq(double deadline_ns) {
    const uint64_t timeout = system_.CycleAfter(deadline_ns);
    while (!regfile_.irq()) {
      if (full_tick_) {
        system_.Tick();
      } else {
        system_.Step(timeout > system_.cycles() ? timeout - system_.cycles() : 1);
      }
      Capture();
      if (system_.time_ns() > deadline_ns) {
        return false;
      }
    }
    return true;
  }
  void Settle(double ns) {
    sw_ns_ = std::max(sw_ns_, system_.time_ns()) + ns;
    SyncTo(sw_ns_);
  }

  // -- Software side: one level pair through the register file -------------
  // Returns the sampled SDA level, or -1 when the sample never came back. A
  // late arm lets the sample park on the wire first, so the arm is the only
  // change between edges; a late consume holds the latched message.
  int Levels(bool scl, bool sda, double arm_delay_ns = 0, double consume_delay_ns = 0) {
    Settle(130);
    regfile_.WriteDown(std::vector<int32_t>{scl ? 1 : 0, sda ? 1 : 0});
    Settle(130);
    regfile_.SetDownValid();
    if (arm_delay_ns > 0) {
      Settle(arm_delay_ns);
      Snapshot();
    }
    regfile_.ArmUp();
    if (!WaitIrq(system_.time_ns() + 1e6)) {
      Snapshot();
      return -1;
    }
    Settle(420 + consume_delay_ns);
    const int sampled = regfile_.ReadUpWord(1);
    regfile_.ConsumeUp();
    Snapshot();
    return sampled;
  }
  void Start() {
    Levels(true, true);
    Levels(true, false);
    Levels(false, false);
  }
  void RepeatedStart() {
    Levels(false, true);
    Start();
  }
  void Stop() {
    Levels(false, false);
    Levels(true, false);
    Levels(true, true);
  }
  // True when the byte was acknowledged.
  bool WriteByte(int value) {
    for (int bit = 7; bit >= 0; --bit) {
      const bool level = ((value >> bit) & 1) != 0;
      Levels(false, level);
      Levels(true, level);
      Levels(false, level);
    }
    Levels(false, true);
    const bool ack = Levels(true, true) == 0;
    Levels(false, true);
    return ack;
  }
  int ReadByte(bool ack) {
    int value = 0;
    for (int bit = 0; bit < 8; ++bit) {
      Levels(false, true);
      value = (value << 1) | (Levels(true, true) == 1 ? 1 : 0);
    }
    Levels(false, !ack);
    Levels(true, !ack);
    Levels(false, !ack);
    return value;
  }

  // -- Between-edge interventions -------------------------------------------
  // Staged words the doorbell never publishes (a lost doorbell).
  void StageWithoutDoorbell(int32_t scl, int32_t sda) {
    regfile_.WriteDown(std::vector<int32_t>{scl, sda});
    Settle(5000);
    Snapshot();
  }
  // Nine SCL pulses and a STOP from a driver outside the clock domain.
  void RecoveryPulses() {
    for (int i = 0; i < 9; ++i) {
      bus_.SetDriver(test_driver_, false, true);
      Settle(1250);
      bus_.SetDriver(test_driver_, true, true);
      Settle(1250);
      Snapshot();
    }
    bus_.SetDriver(test_driver_, true, false);
    Settle(1250);
    bus_.SetDriver(test_driver_, true, true);
    Settle(1250);
    Snapshot();
  }
  // A device-less peripheral on channel 2 holds SDA low for a while; only
  // the mux's pass gates can carry that to the other segments.
  void Channel2HoldsSda(double ns) {
    chan2_.SetDriver(chan2_driver_, true, false);
    Settle(ns);
    Snapshot();
    chan2_.SetDriver(chan2_driver_, true, true);
    Settle(ns);
    Snapshot();
  }
  void SoftReset() {
    adapter_.Reset();
    regfile_.SoftReset();
    watcher_.Reset();
    system_.ResetWires();
    Settle(320);
    Snapshot();
  }

  // Every component's observable state, one line per script step.
  void Snapshot() {
    std::string s = "t=" + std::to_string(system_.cycles());
    auto flag = [&s](const char* name, bool value) {
      s += ' ';
      s += name;
      s += value ? "=1" : "=0";
    };
    auto num = [&s](const char* name, uint64_t value) {
      s += ' ';
      s += name;
      s += '=';
      s += std::to_string(value);
    };
    for (const sim::I2cBus* bus : {&bus_, &chan0_, &chan1_, &chan2_}) {
      flag("scl", bus->scl());
      flag("sda", bus->sda());
    }
    for (const rtl::HsWire* wire : {down_, up_}) {
      flag("v", wire->valid);
      flag("r", wire->ready);
      num("d0", static_cast<uint64_t>(wire->data[0]));
      num("d1", static_cast<uint64_t>(wire->data[1]));
    }
    flag("pending", regfile_.DownPending());
    flag("full", regfile_.UpFull());
    flag("irq", regfile_.irq());
    num("up0", static_cast<uint64_t>(regfile_.ReadUpWord(0)));
    num("up1", static_cast<uint64_t>(regfile_.ReadUpWord(1)));
    for (const sim::Eeprom24aa512* eeprom : {&eeprom_, &eeprom1_}) {
      flag("busy", eeprom->busy());
      num("wr", eeprom->bytes_written());
      num("rd", eeprom->bytes_read());
      num("starts", eeprom->transactions_seen());
    }
    num("m0", eeprom_.MemoryAt(0x10));
    num("m1", eeprom_.MemoryAt(0x11));
    num("mask", static_cast<uint64_t>(mux_.control_mask()));
    num("routed", static_cast<uint64_t>(mux_.routed_mask()));
    num("selects", mux_.selects_applied());
    flag("holding", second_.holding());
    num("wins", second_.arbitration_wins());
    num("master_starts", second_.starts_seen());
    for (int reg : {sim::kMfdRegIrqStatus, 0x21, 0x31, 0x32}) {
      num("reg", mfd_.RegisterAt(reg));
    }
    num("mfd_irqs", mfd_.irqs_raised());
    num("watch_ticks", watcher_.ticks());
    flag("tripped", watcher_.tripped());
    s += ' ' + monitor::FormatTripCounters(watcher_.counters());
    num("faults", plan_.faults_injected());
    steps_.push_back(std::move(s));
  }

  const std::vector<std::string>& steps() const { return steps_; }
  const rtl::RtlSystem& system() const { return system_; }
  std::vector<std::vector<sim::I2cBus::Sample>> BusTraces() const {
    return {bus_.samples(), chan0_.samples(), chan1_.samples(), chan2_.samples()};
  }
  sim::Eeprom24aa512& eeprom() { return eeprom_; }
  const monitor::BusWatcher& watcher() const { return watcher_; }
  const sim::SecondMaster& second_master() const { return second_; }
  const sim::MfdRegFileDevice& mfd() const { return mfd_; }

 private:
  static sim::SecondMasterConfig MasterConfig() {
    sim::SecondMasterConfig config;
    config.hold_ns_per_unit = 30000;
    config.release_ns = 500;
    return config;
  }
  static sim::EepromConfig DeviceConfig(int address) {
    sim::EepromConfig config;
    config.address = address;
    config.memory_bytes = 4096;
    config.write_cycle_ns = 20000;
    return config;
  }
  void Capture() {
    const double now = system_.time_ns();
    bus_.Capture(now);
    chan0_.Capture(now);
    chan1_.Capture(now);
    chan2_.Capture(now);
  }

  bool full_tick_;
  rtl::RtlSystem system_;
  sim::I2cBus bus_;
  sim::I2cBus chan0_;
  sim::I2cBus chan1_;
  sim::I2cBus chan2_;
  sim::BusAdapter adapter_;
  sim::SecondMaster second_;
  sim::I2cMux mux_;
  sim::Eeprom24aa512 eeprom_;
  sim::MfdRegFileDevice mfd_;
  sim::Eeprom24aa512 eeprom1_;
  rtl::MmioRegfile regfile_;
  monitor::BusWatcher watcher_;
  int test_driver_;
  int chan2_driver_;
  rtl::HsWire* down_ = nullptr;
  rtl::HsWire* up_ = nullptr;
  sim::FaultPlan plan_;
  double sw_ns_ = 0;
  std::vector<std::string> steps_;
};

// The script both worlds run: mux select, an EEPROM page write into its
// write cycle, a NACKed busy probe, a read-back, MFD counter and conversion
// countdowns, a stuck peripheral behind the mux, a late arm, a lost
// doorbell, an arbitration loss holding the bus past the watcher's
// stuck-low limit, an unconsumed up-message past its handshake limit,
// recovery pulses, a soft reset, and a final read.
void RunSkipScript(SkipWorld* world) {
  world->Start();
  world->WriteByte(0x70 << 1);
  world->WriteByte(0x05);  // channels 0 and 2
  world->Stop();
  world->Start();
  for (int byte : {0x50 << 1, 0x00, 0x10, 0xDE, 0xAD}) {
    world->WriteByte(byte);
  }
  world->Stop();
  world->Start();
  world->WriteByte(0x50 << 1);  // busy: NACK
  world->Stop();
  world->Settle(30000);
  world->Start();
  world->WriteByte(0x50 << 1);
  world->WriteByte(0x00);
  world->WriteByte(0x10);
  world->RepeatedStart();
  world->WriteByte((0x50 << 1) | 1);
  world->ReadByte(/*ack=*/true);
  world->ReadByte(/*ack=*/false);
  world->Stop();
  world->Start();
  for (int byte : {0x30 << 1, 0x00, 0x20, 0x00, 0x05}) {  // counter CTRL = 5
    world->WriteByte(byte);
  }
  world->Stop();
  world->Start();
  for (int byte : {0x30 << 1, 0x00, 0x30, 0x00, 0x01}) {  // stat TRIGGER
    world->WriteByte(byte);
  }
  world->Stop();
  world->Settle(8000);
  world->Channel2HoldsSda(4000);
  world->Levels(true, true, /*arm_delay_ns=*/5000);
  world->StageWithoutDoorbell(0, 1);
  world->Start();  // the second master wins this one
  world->WriteByte(0x50 << 1);
  world->Settle(40000);
  world->Stop();
  world->Levels(false, true, /*arm_delay_ns=*/0, /*consume_delay_ns=*/40000);
  world->RecoveryPulses();
  world->SoftReset();
  world->Start();
  world->WriteByte(0x50 << 1);
  world->WriteByte(0x00);
  world->WriteByte(0x11);
  world->RepeatedStart();
  world->WriteByte((0x50 << 1) | 1);
  world->ReadByte(/*ack=*/false);
  world->Stop();
  world->Settle(2000);
  world->Snapshot();
}

TEST(IdleSkipping, HandBuiltPlatformMatchesPerEdgeClock) {
  SkipWorld reference(/*full_tick=*/true);
  SkipWorld skipping(/*full_tick=*/false);
  RunSkipScript(&reference);
  RunSkipScript(&skipping);

  ASSERT_EQ(skipping.steps().size(), reference.steps().size());
  for (size_t i = 0; i < reference.steps().size(); ++i) {
    ASSERT_EQ(skipping.steps()[i], reference.steps()[i]) << "script step " << i;
  }
  const auto reference_traces = reference.BusTraces();
  const auto skipping_traces = skipping.BusTraces();
  for (size_t b = 0; b < reference_traces.size(); ++b) {
    ASSERT_EQ(skipping_traces[b].size(), reference_traces[b].size()) << "bus " << b;
    for (size_t i = 0; i < reference_traces[b].size(); ++i) {
      EXPECT_EQ(skipping_traces[b][i].t_ns, reference_traces[b][i].t_ns) << b << ":" << i;
      EXPECT_EQ(skipping_traces[b][i].scl, reference_traces[b][i].scl) << b << ":" << i;
      EXPECT_EQ(skipping_traces[b][i].sda, reference_traces[b][i].sda) << b << ":" << i;
    }
  }

  // The script reached every countdown and every watcher trip kind it aims
  // at, so the equality above covers them.
  EXPECT_EQ(reference.eeprom().MemoryAt(0x10), 0xDE);
  EXPECT_EQ(reference.second_master().arbitration_wins(), 1u);
  EXPECT_GE(reference.mfd().irqs_raised(), 2u);
  const monitor::TripCounters& trips = reference.watcher().counters();
  EXPECT_GT(trips.by_kind[static_cast<int>(monitor::TripKind::kStuckBus)], 0u);
  EXPECT_GT(trips.by_kind[static_cast<int>(monitor::TripKind::kHandshakeStall)], 0u);
  // And skipping did skip: most edges of the script are countdowns.
  EXPECT_EQ(reference.system().cycles_ticked(), reference.system().cycles());
  EXPECT_LT(skipping.system().cycles_ticked() * 4, skipping.system().cycles());
}

}  // namespace
}  // namespace efeu
