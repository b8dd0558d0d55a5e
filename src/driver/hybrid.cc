#include "src/driver/hybrid.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <span>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "src/i2c/codes.h"
#include "src/i2c/stack.h"

namespace efeu::driver {

namespace {

// Host-time source for the vm-host cost counter. One VM slice per boundary
// pump is tens of nanoseconds, so the timer must be cheap relative to the
// quantity it measures: on x86 rdtsc costs about half a steady_clock::now()
// pair. Ticks convert to seconds through a once-per-process calibration
// against steady_clock (invariant TSC keeps the rate stable).
#if defined(__x86_64__) || defined(__i386__)
uint64_t HostTicks() { return __rdtsc(); }

double TicksPerSecond() {
  static const double rate = [] {
    const auto wall_start = std::chrono::steady_clock::now();
    const uint64_t tick_start = HostTicks();
    // 2 ms keeps the calibration error well under 1% and is paid once per
    // process, outside any timed region.
    while (std::chrono::steady_clock::now() - wall_start < std::chrono::milliseconds(2)) {
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    return static_cast<double>(HostTicks() - tick_start) / seconds;
  }();
  return rate;
}
#else
uint64_t HostTicks() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double TicksPerSecond() { return 1e9; }
#endif

// Smallest observable cost of an empty HostTicks() pair: the timer latency
// that lands inside every timed interval. Calibrated once per process; the
// minimum over many trials is interference-free, so subtracting it never
// over-corrects.
uint64_t TimerBias() {
  static const uint64_t bias = [] {
    uint64_t best = ~uint64_t{0};
    for (int i = 0; i < 4096; ++i) {
      const uint64_t start = HostTicks();
      const uint64_t stop = HostTicks();
      best = std::min(best, stop - start);
    }
    return best;
  }();
  return bias;
}

// Controller layers, top to bottom.
const char* kLayers[] = {"CEepDriver", "CTransaction", "CByte", "CSymbol"};

// Index of the topmost hardware layer in kLayers; 4 = none (Electrical).
int FirstHardwareLayer(SplitPoint split) {
  switch (split) {
    case SplitPoint::kEepDriver:
      return 0;
    case SplitPoint::kTransaction:
      return 1;
    case SplitPoint::kByte:
      return 2;
    case SplitPoint::kSymbol:
      return 3;
    case SplitPoint::kElectrical:
      return 4;
  }
  return 4;
}

}  // namespace

const char* SplitPointName(SplitPoint split) {
  switch (split) {
    case SplitPoint::kElectrical:
      return "Electrical";
    case SplitPoint::kSymbol:
      return "Symbol";
    case SplitPoint::kByte:
      return "Byte";
    case SplitPoint::kTransaction:
      return "Transaction";
    case SplitPoint::kEepDriver:
      return "EepDriver";
  }
  return "?";
}

std::string FormatExecCounters(const DriverMetrics& metrics) {
  std::string out;
  auto field = [&out](const char* name, uint64_t value) {
    if (!out.empty()) {
      out += ' ';
    }
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("instr_retired", metrics.instructions_retired);
  field("mmio_bursts", metrics.mmio_bursts);
  field("irqs_coalesced", metrics.irqs_coalesced);
  field("irqs", metrics.irq_count);
  field("rtl_ticked", metrics.rtl_cycles_ticked);
  char host[48];
  std::snprintf(host, sizeof(host), " vm_host_ms=%.3f", metrics.vm_host_seconds * 1e3);
  out += host;
  return out;
}

HybridDriver::HybridDriver(const HybridConfig& config)
    : config_(config), rtl_(config.timing.clock_ns) {
  if (config_.shared_compilation != nullptr) {
    compilation_ = config_.shared_compilation;
  } else {
    DiagnosticEngine diag;
    compilation_ = i2c::CompileControllerStack(diag);
  }
  assert(compilation_ != nullptr && "controller stack failed to compile");
  const esi::SystemInfo& info = compilation_->system();

  // ---- Bus, topology, devices, adapter --------------------------------
  adapter_ = std::make_unique<sim::BusAdapter>(&bus_, config_.timing.half_cycle_ticks,
                                               !config_.ablate_fixed_hold_adapter);
  rtl_.AddComponent(adapter_.get());
  // Devices hang off the controller's bus directly, or off one mux channel
  // when the mux topology is enabled.
  sim::I2cBus* device_bus = &bus_;
  if (config_.mux_topology.enabled) {
    std::vector<sim::I2cBus*> channels;
    for (int c = 0; c < config_.mux_topology.mux.channels; ++c) {
      downstream_buses_.push_back(std::make_unique<sim::I2cBus>());
      channels.push_back(downstream_buses_.back().get());
    }
    mux_ = std::make_unique<sim::I2cMux>(&bus_, channels, config_.mux_topology.mux);
    rtl_.AddComponent(mux_.get());
    device_bus = downstream_buses_[static_cast<size_t>(
        config_.mux_topology.device_channel)].get();
  }
  if (config_.enable_second_master) {
    sim::SecondMasterConfig master_config = config_.second_master;
    master_config.clock_ns = config_.timing.clock_ns;
    second_master_ = std::make_unique<sim::SecondMaster>(&bus_, master_config);
    rtl_.AddComponent(second_master_.get());
  }
  sim::EepromConfig eeprom_config = config_.eeprom;
  eeprom_config.clock_ns = config_.timing.clock_ns;
  eeprom_ = std::make_unique<sim::Eeprom24aa512>(device_bus, eeprom_config);
  rtl_.AddComponent(eeprom_.get());
  for (const sim::EepromConfig& extra : config_.extra_eeproms) {
    sim::EepromConfig cfg = extra;
    cfg.clock_ns = config_.timing.clock_ns;
    extra_eeproms_.push_back(std::make_unique<sim::Eeprom24aa512>(device_bus, cfg));
    rtl_.AddComponent(extra_eeproms_.back().get());
  }
  for (const sim::MfdConfig& mfd_config : config_.mfd_devices) {
    mfds_.push_back(std::make_unique<sim::MfdRegFileDevice>(device_bus, mfd_config));
    rtl_.AddComponent(mfds_.back().get());
  }
  if (config_.capture_waveform) {
    bus_.EnableCapture(true);
    rtl_.SetPostTickHook([this](double now) { bus_.Capture(now); });
  }
  // Fault injection: the driver owns the live plan; the adapter injects the
  // electrical faults, the primary EEPROM the device-side ones, the topology
  // components the fabric ones. The recovery driver releases both lines
  // until a bus-recovery sequence runs, so an inactive plan leaves the bus
  // byte-identical to the ideal one.
  fault_plan_ = config_.fault_plan;
  adapter_->SetFaultPlan(&fault_plan_);
  eeprom_->SetFaultPlan(&fault_plan_);
  if (mux_ != nullptr) {
    mux_->SetFaultPlan(&fault_plan_);
  }
  if (second_master_ != nullptr) {
    second_master_->SetFaultPlan(&fault_plan_);
  }
  for (const std::unique_ptr<sim::MfdRegFileDevice>& mfd : mfds_) {
    mfd->SetFaultPlan(&fault_plan_);
  }
  recovery_driver_id_ = bus_.AddDriver();
  last_status_ = i2c::kCeResOk;

  // ---- Boundary channels -------------------------------------------------
  int first_hw = FirstHardwareLayer(config_.split);
  std::string upper = first_hw == 0 ? "CWorld" : kLayers[first_hw - 1];
  std::string lower = first_hw == 4 ? "Electrical" : kLayers[first_hw];
  std::string hw_top = first_hw == 4 ? "" : kLayers[first_hw];
  const esi::ChannelInfo* down_channel =
      first_hw == 4 ? info.FindChannel("CSymbol", "Electrical") : info.FindChannel(upper, lower);
  const esi::ChannelInfo* up_channel =
      first_hw == 4 ? info.FindChannel("Electrical", "CSymbol") : info.FindChannel(lower, upper);
  assert(down_channel != nullptr && up_channel != nullptr);
  down_words_ = down_channel->flat_size;
  up_words_ = up_channel->flat_size;

  regfile_ = std::make_unique<rtl::MmioRegfile>(down_words_, up_words_);
  rtl::HsWire* down_wire = rtl_.CreateWire(down_words_);
  rtl::HsWire* up_wire = rtl_.CreateWire(up_words_);
  regfile_->BindDown(down_wire);
  regfile_->BindUp(up_wire);
  regfile_->set_disable_auto_reset(config_.ablate_no_auto_reset);
  rtl_.AddComponent(regfile_.get());

  // ---- Hardware modules ---------------------------------------------------
  if (first_hw == 4) {
    // Electrical split: the register file talks straight to the bus adapter.
    adapter_->BindDown(down_wire);
    adapter_->BindUp(up_wire);
  } else {
    for (int i = first_hw; i < 4; ++i) {
      const ir::Module* module = compilation_->FindModule(kLayers[i]);
      assert(module != nullptr);
      hw_modules_.push_back(std::make_unique<rtl::RtlModule>(module, kLayers[i]));
      rtl_.AddComponent(hw_modules_.back().get());
    }
    // Top hardware module <- register file.
    rtl::RtlModule& top = *hw_modules_.front();
    top.BindPort(top.module().FindPort(down_channel, /*is_send=*/false), down_wire);
    top.BindPort(top.module().FindPort(up_channel, /*is_send=*/true), up_wire);
    // Chain between hardware modules.
    for (size_t i = 0; i + 1 < hw_modules_.size(); ++i) {
      rtl::RtlModule& upper_module = *hw_modules_[i];
      rtl::RtlModule& lower_module = *hw_modules_[i + 1];
      const esi::ChannelInfo* d =
          info.FindChannel(upper_module.name(), lower_module.name());
      const esi::ChannelInfo* u =
          info.FindChannel(lower_module.name(), upper_module.name());
      rtl::HsWire* dw = rtl_.CreateWire(d->flat_size);
      rtl::HsWire* uw = rtl_.CreateWire(u->flat_size);
      upper_module.BindPort(upper_module.module().FindPort(d, true), dw);
      lower_module.BindPort(lower_module.module().FindPort(d, false), dw);
      lower_module.BindPort(lower_module.module().FindPort(u, true), uw);
      upper_module.BindPort(upper_module.module().FindPort(u, false), uw);
    }
    // Bottom hardware module (CSymbol) <-> bus adapter.
    rtl::RtlModule& bottom = *hw_modules_.back();
    const esi::ChannelInfo* to_elec = info.FindChannel("CSymbol", "Electrical");
    const esi::ChannelInfo* from_elec = info.FindChannel("Electrical", "CSymbol");
    rtl::HsWire* aw_down = rtl_.CreateWire(to_elec->flat_size);
    rtl::HsWire* aw_up = rtl_.CreateWire(from_elec->flat_size);
    bottom.BindPort(bottom.module().FindPort(to_elec, true), aw_down);
    bottom.BindPort(bottom.module().FindPort(from_elec, false), aw_up);
    adapter_->BindDown(aw_down);
    adapter_->BindUp(aw_up);
  }

  // ---- Runtime monitors --------------------------------------------------
  if (config_.enable_monitors) {
    monitor_spec_ = monitor::MonitorSpec::FromSystem(info, down_channel, up_channel);
    shadow_ = std::make_unique<monitor::ShadowChecker>(&monitor_spec_);
    monitor::BusWatcherOptions watcher_options = config_.watcher;
    if (config_.split == SplitPoint::kElectrical) {
      // At the Electrical split every half cycle crosses the MMIO boundary,
      // so the software (MMIO accesses, interrupt entry/exit, VM steps)
      // paces the bus and legal low runs stretch by orders of magnitude.
      // Widen the window accordingly; detection stays bounded.
      watcher_options.stuck_low_limit *= 64;
      watcher_options.handshake_limit *= 4;
    }
    watcher_ = std::make_unique<monitor::BusWatcher>(&bus_, regfile_.get(), watcher_options);
    // Added after every active component: the watcher observes the cycle's
    // committed state and drives nothing.
    rtl_.AddComponent(watcher_.get());
  }

  // ---- Software side ------------------------------------------------------
  sw_empty_ = first_hw == 0;
  if (!sw_empty_) {
    std::vector<int> procs;
    for (int i = 0; i < first_hw; ++i) {
      const ir::Module* module = compilation_->FindModule(kLayers[i]);
      assert(module != nullptr);
      procs.push_back(sw_.AddProcess(module, kLayers[i]));
    }
    for (size_t i = 0; i + 1 < procs.size(); ++i) {
      const esi::ChannelInfo* d = info.FindChannel(kLayers[i], kLayers[i + 1]);
      const esi::ChannelInfo* u = info.FindChannel(kLayers[i + 1], kLayers[i]);
      sw_.Connect(sw_.FindPort(procs[i], d, true), sw_.FindPort(procs[i + 1], d, false));
      sw_.Connect(sw_.FindPort(procs[i + 1], u, true), sw_.FindPort(procs[i], u, false));
    }
    const esi::ChannelInfo* world_in = info.FindChannel("CWorld", "CEepDriver");
    const esi::ChannelInfo* world_out = info.FindChannel("CEepDriver", "CWorld");
    top_in_ = sw_.FindPort(procs.front(), world_in, /*is_send=*/false);
    top_out_ = sw_.FindPort(procs.front(), world_out, /*is_send=*/true);
    int bottom = procs.back();
    boundary_down_ = sw_.FindPort(bottom, down_channel, /*is_send=*/true);
    boundary_up_ = sw_.FindPort(bottom, up_channel, /*is_send=*/false);
    sw_.SetExecMode(config_.exec_mode);
    sw_.Precompile();
    // Let every layer reach its initial blocking point (startup, not timed).
    RunSw();
    last_sw_steps_ = sw_.TotalSteps();
  }
  // Let the hardware reach its initial handshakes.
  rtl_.Advance(32);
}

HybridDriver::~HybridDriver() = default;

vm::SystemState HybridDriver::RunSw() {
  // A boundary-pump slice retires ~10 IR instructions, so the timer pair's
  // own latency is a sizeable fraction of the quantity under measurement;
  // subtracting the calibrated empty-pair cost removes that inclusion bias
  // (min-based calibration cannot over-subtract).
  const uint64_t start = HostTicks();
  vm::SystemState state = sw_.Run();
  const uint64_t delta = HostTicks() - start;
  vm_host_ticks_ += delta - std::min(delta, TimerBias());
  return state;
}

double HybridDriver::vm_host_seconds() const {
  return static_cast<double>(vm_host_ticks_) / TicksPerSecond();
}

double HybridDriver::now_ns() const { return std::max(sw_time_ns_, rtl_.time_ns()); }

void HybridDriver::SyncRtl() { rtl_.TickUntil(sw_time_ns_); }

void HybridDriver::Busy(double ns) {
  sw_time_ns_ += ns;
  cpu_busy_ns_ += ns;
}

double HybridDriver::BurstCost(double first_ns, int words) const {
  return first_ns + config_.timing.mmio_burst_word_ns * static_cast<double>(std::max(0, words - 1));
}

void HybridDriver::Idle(double ns) {
  sw_time_ns_ += ns;
  SyncRtl();
}

void HybridDriver::ShadowBusy(size_t words) {
  Busy(config_.timing.sw_instr_ns * static_cast<double>(4 + 3 * words));
}

bool HybridDriver::WaitUpMessage() {
  // A realistic driver timeout, relative to when this wait started.
  const double deadline = now_ns() + config_.recovery.wait_timeout_ns;
  if (!config_.interrupt_driven) {
    // Boundary fault: a corrupted STATUS read makes the poll loop see "not
    // ready" for `corrupt` polls even after the message landed.
    int corrupt = fault_plan_.Consult(sim::FaultKind::kCorruptedMmioRead);
    // Polling: spin on the UP_VALID register.
    while (true) {
      Busy(config_.timing.mmio_read_ns);
      SyncRtl();
      if (regfile_->UpFull()) {
        if (corrupt == 0) {
          return true;
        }
        --corrupt;
      }
      if (sw_time_ns_ > deadline) {
        if (shadow_) {
          ShadowBusy(0);
          shadow_->OnWaitTimeout();
        }
        return false;
      }
    }
  }
  // Interrupt coalescing: within the drain window after the last real IRQ
  // the driver polls instead of sleeping, so a burst of boundary messages
  // pays one interrupt. The window is bounded — if it expires empty, the
  // driver re-arms the sleeping wait below, so monitor detection latency is
  // bounded by irq_coalesce_window_ns plus the normal interrupt path.
  if (config_.irq_coalesce_window_ns > 0 && now_ns() <= irq_drain_deadline_ns_) {
    int corrupt = fault_plan_.Consult(sim::FaultKind::kCorruptedMmioRead);
    while (now_ns() <= irq_drain_deadline_ns_) {
      Busy(config_.timing.mmio_read_ns);
      SyncRtl();
      if (regfile_->UpFull()) {
        if (corrupt == 0) {
          ++irqs_coalesced_;
          return true;
        }
        --corrupt;
      }
    }
  }
  // Interrupt-driven: the CPU sleeps in the blocking UIO read; wall time
  // follows the hardware.
  SyncRtl();
  // Boundary fault: a spurious IRQ edge wakes the driver with nothing in the
  // register file; it pays the full interrupt path and goes back to sleep.
  if (fault_plan_.Consult(sim::FaultKind::kSpuriousInterrupt) > 0) {
    double spurious_busy = config_.timing.irq_overhead_ns * config_.timing.irq_busy_fraction;
    sw_time_ns_ += config_.timing.irq_overhead_ns - spurious_busy;
    Busy(spurious_busy);
    ++irq_count_;
    Busy(config_.timing.mmio_read_ns);  // status read: nothing pending
    SyncRtl();
    Busy(config_.timing.irq_exit_ns);
    if (shadow_) {
      ShadowBusy(0);
      shadow_->OnSpuriousWakeup();
    }
  }
  // Boundary fault: the IRQ edge for this message never reaches the CPU, so
  // the blocking read sleeps until its timeout.
  const bool dropped = fault_plan_.Consult(sim::FaultKind::kDroppedInterrupt) > 0;
  // The IRQ edge is never an idle one, so stepping lands on it (or on the
  // first edge past the deadline) exactly as a per-edge loop does.
  const uint64_t timeout_cycle = rtl_.CycleAfter(deadline);
  while (dropped || !regfile_->irq()) {
    rtl_.Step(timeout_cycle > rtl_.cycles() ? timeout_cycle - rtl_.cycles() : 1);
    if (rtl_.time_ns() > deadline) {
      if (shadow_) {
        ShadowBusy(0);
        shadow_->OnWaitTimeout();
      }
      return false;
    }
  }
  sw_time_ns_ = std::max(sw_time_ns_, rtl_.time_ns());
  // Part of the interrupt path is scheduler latency (core idle/available);
  // the rest is busy kernel+userspace work.
  double busy_part = config_.timing.irq_overhead_ns * config_.timing.irq_busy_fraction;
  sw_time_ns_ += config_.timing.irq_overhead_ns - busy_part;
  Busy(busy_part);
  ++irq_count_;
  // Read the status/valid register once after wakeup.
  Busy(config_.timing.mmio_read_ns);
  SyncRtl();
  Busy(config_.timing.irq_exit_ns);
  // Boundary fault: the post-wakeup status read is garbage; the driver
  // cannot trust the message and reports the wait as failed.
  if (fault_plan_.Consult(sim::FaultKind::kCorruptedMmioRead) > 0) {
    if (shadow_) {
      ShadowBusy(0);
      shadow_->OnWaitTimeout();
    }
    return false;
  }
  if (regfile_->UpFull()) {
    irq_drain_deadline_ns_ = now_ns() + config_.irq_coalesce_window_ns;
    return true;
  }
  return false;
}

bool HybridDriver::PumpOnce() {
  if (!sw_empty_) {
    vm::SystemState state = RunSw();
    assert(state != vm::SystemState::kFailed);
    (void)state;
    uint64_t steps = sw_.TotalSteps();
    Busy(static_cast<double>(steps - last_sw_steps_) * config_.timing.sw_instr_ns);
    last_sw_steps_ = steps;

    if (sw_.WantsToSend(top_out_)) {
      return true;  // Result available; consumed by RunOperation.
    }
    if (sw_.WantsToSend(boundary_down_)) {
      std::optional<std::vector<int32_t>> msg = sw_.TakeMessage(boundary_down_);
      assert(msg.has_value());
      if (shadow_) {
        ShadowBusy(msg->size());
        shadow_->OnDownMessage(*msg);
      }
      // In the talk protocol the previous send was necessarily consumed
      // before its reply arrived, so no valid-flag readback is needed.
      assert(config_.ablate_no_auto_reset || !regfile_->DownPending());
      if (config_.mmio_bursts && down_words_ > 1) {
        Busy(BurstCost(config_.timing.mmio_write_ns, down_words_));
        SyncRtl();
        regfile_->WriteDown(*msg);
        ++mmio_bursts_;
      } else {
        for (int i = 0; i < down_words_; ++i) {
          Busy(config_.timing.mmio_write_ns);
          SyncRtl();
          regfile_->WriteDownWord(i, (*msg)[i]);
        }
      }
      Busy(config_.timing.mmio_write_ns);
      SyncRtl();
      // Boundary fault: the DOWN_VALID doorbell write is silently dropped on
      // the interconnect; hardware never learns about the message.
      if (fault_plan_.Consult(sim::FaultKind::kLostDoorbell) == 0) {
        regfile_->SetDownValid();
      }
      return false;
    }
    if (sw_.WantsToRecv(boundary_up_)) {
      Busy(config_.timing.mmio_write_ns);
      SyncRtl();
      // Boundary fault: the UP_READY write is lost, so the up ready/valid
      // handshake never completes and the message never lands.
      if (fault_plan_.Consult(sim::FaultKind::kStalledUpMessage) == 0) {
        regfile_->ArmUp();
      }
      if (!WaitUpMessage()) {
        // The hardware missed its deadline with the software stack blocked
        // mid-protocol: surface a terminal failure instead of hanging.
        pump_dead_ = true;
        return true;
      }
      // With bursts the span aliases the latch registers straight through
      // shadow checking and channel delivery (no intermediate copy); the
      // latch cannot be overwritten before the next ArmUp().
      std::span<const int32_t> msg;
      std::vector<int32_t> copy;
      if (config_.mmio_bursts && up_words_ > 1) {
        Busy(BurstCost(config_.timing.mmio_read_ns, up_words_));
        msg = regfile_->ReadUp();
        ++mmio_bursts_;
      } else {
        copy.resize(up_words_);
        for (int i = 0; i < up_words_; ++i) {
          Busy(config_.timing.mmio_read_ns);
          copy[i] = regfile_->ReadUpWord(i);
        }
        msg = copy;
      }
      SyncRtl();
      regfile_->ConsumeUp();
      if (shadow_) {
        ShadowBusy(msg.size());
        shadow_->OnUpMessage(msg);
      }
      bool delivered = sw_.DeliverMessage(boundary_up_, msg);
      assert(delivered);
      (void)delivered;
      return false;
    }
    assert(false && "software stack quiescent with no pending boundary operation");
    return false;
  }
  return true;
}

bool HybridDriver::RunOperation(const std::vector<int32_t>& request,
                                std::vector<int32_t>* reply) {
  if (sw_empty_) {
    // Whole stack in hardware: the application performs the MMIO itself.
    Busy(config_.timing.op_setup_ns);
    assert(config_.ablate_no_auto_reset || !regfile_->DownPending());
    if (config_.mmio_bursts && down_words_ > 1) {
      Busy(BurstCost(config_.timing.mmio_write_ns, down_words_));
      SyncRtl();
      regfile_->WriteDown(request);
      ++mmio_bursts_;
    } else {
      for (int i = 0; i < down_words_; ++i) {
        Busy(config_.timing.mmio_write_ns);
        SyncRtl();
        regfile_->WriteDownWord(i, request[i]);
      }
    }
    Busy(config_.timing.mmio_write_ns);
    SyncRtl();
    if (shadow_) {
      ShadowBusy(request.size());
      shadow_->OnDownMessage(request);
    }
    if (fault_plan_.Consult(sim::FaultKind::kLostDoorbell) == 0) {
      regfile_->SetDownValid();
    }
    Busy(config_.timing.mmio_write_ns);
    SyncRtl();
    if (fault_plan_.Consult(sim::FaultKind::kStalledUpMessage) == 0) {
      regfile_->ArmUp();
    }
    if (!WaitUpMessage()) {
      return false;
    }
    reply->resize(up_words_);
    if (config_.mmio_bursts && up_words_ > 1) {
      Busy(BurstCost(config_.timing.mmio_read_ns, up_words_));
      std::span<const int32_t> up = regfile_->ReadUp();
      std::copy(up.begin(), up.end(), reply->begin());
      ++mmio_bursts_;
    } else {
      for (int i = 0; i < up_words_; ++i) {
        Busy(config_.timing.mmio_read_ns);
        (*reply)[i] = regfile_->ReadUpWord(i);
      }
    }
    SyncRtl();
    regfile_->ConsumeUp();
    if (shadow_) {
      ShadowBusy(reply->size());
      shadow_->OnUpMessage(*reply);
    }
    Busy(config_.timing.op_setup_ns);
    return true;
  }

  // Let the top layer return to its request-receive point first.
  RunSw();
  bool delivered = sw_.DeliverMessage(top_in_, request);
  assert(delivered && "stack not ready for a new operation");
  (void)delivered;
  constexpr int kMaxPumps = 1 << 22;
  const double op_deadline =
      config_.recovery.enabled ? now_ns() + config_.recovery.op_deadline_ns : 0;
  for (int i = 0; i < kMaxPumps; ++i) {
    if (PumpOnce()) {
      if (pump_dead_) {
        pump_dead_ = false;
        return false;
      }
      std::optional<std::vector<int32_t>> result = sw_.TakeMessage(top_out_);
      assert(result.has_value());
      *reply = std::move(*result);
      return true;
    }
    if (config_.recovery.enabled && now_ns() > op_deadline) {
      return false;
    }
  }
  return false;
}

bool HybridDriver::Transact(const std::vector<int32_t>& request,
                            std::vector<int32_t>* reply) {
  const RecoveryPolicy& policy = config_.recovery;
  if (wedged_) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  double backoff = policy.initial_backoff_ns;
  const double deadline = now_ns() + policy.op_deadline_ns;
  for (int attempt = 1;; ++attempt) {
    ++recovery_counters_.attempts;
    if (!RunOperation(request, reply)) {
      // The stack itself stopped responding (stuck bus, dead hardware): the
      // software layers are blocked mid-protocol, so this is terminal.
      ++recovery_counters_.timeouts;
      wedged_ = true;
      last_status_ = i2c::kCeResFail;
      if (policy.enabled && policy.bus_recovery) {
        // A bus owned by a competing master is busy, not stuck: nine pulses
        // would fight the owner mid-byte. The supervisor's WaitBusFree rung
        // handles that case; the pulses stay for genuinely stuck lines.
        if (second_master_ == nullptr || !second_master_->holding()) {
          RecoverBus();
        }
      }
      return false;
    }
    last_status_ = (*reply)[0];
    if (last_status_ == i2c::kCeResOk) {
      return true;
    }
    if (last_status_ == i2c::kCeResNack) {
      ++recovery_counters_.nacks;
    } else {
      ++recovery_counters_.failures;
      if (policy.enabled && policy.bus_recovery) {
        RecoverBus();
      }
    }
    if (!policy.enabled || attempt >= policy.max_attempts) {
      return false;
    }
    if (now_ns() + backoff > deadline) {
      ++recovery_counters_.deadline_hits;
      return false;
    }
    ++recovery_counters_.retries;
    recovery_counters_.backoff_ns += backoff;
    Idle(backoff);
    backoff = std::min(backoff * policy.backoff_multiplier, policy.max_backoff_ns);
  }
}

void HybridDriver::SoftReset() {
  ++recovery_counters_.soft_resets;
  // Hardware side: every layer FSM, the adapter and the register file back
  // to their initial state. Component resets publish deasserted handshake
  // flags at their next Commit at the earliest, so clear the wires directly
  // too — a peer must not observe a stale pre-reset valid/ready.
  for (const std::unique_ptr<rtl::RtlModule>& module : hw_modules_) {
    module->Reset();
  }
  adapter_->Reset();
  regfile_->SoftReset();
  if (watcher_) {
    watcher_->Reset();
  }
  if (shadow_) {
    shadow_->Reset();
  }
  rtl_.ResetWires();
  bus_.SetDriver(recovery_driver_id_, /*scl=*/true, /*sda=*/true);
  // Software side: coroutine reinit, then run every layer back to its
  // initial blocking point (startup, not timed).
  if (!sw_empty_) {
    sw_.Reset();
    RunSw();
    last_sw_steps_ = sw_.TotalSteps();
  }
  wedged_ = false;
  pump_dead_ = false;
  irq_drain_deadline_ns_ = 0;
  // The reset may have been provoked by a mux that silently lost (or never
  // took) its routing; drop the cached select so the next operation re-
  // programs and re-verifies it.
  mux_selected_ = false;
  last_status_ = i2c::kCeResOk;
  // One SOFT_RESET register write, then let the hardware settle into its
  // initial handshakes again.
  Busy(config_.timing.mmio_write_ns);
  SyncRtl();
  rtl_.Advance(32);
  sw_time_ns_ = std::max(sw_time_ns_, rtl_.time_ns());
}

bool HybridDriver::Probe() {
  ++recovery_counters_.reprobes;
  // Behind a mux the device is unreachable until the select is re-verified
  // (the preceding SoftReset dropped the cache).
  if (!EnsureMuxSelected()) {
    return false;
  }
  // A single-byte read from offset 0, bypassing the retry ladder: one
  // attempt, straight answer.
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActRead;
  request[1] = config_.eeprom.address;
  request[2] = 0;
  request[3] = 1;
  std::vector<int32_t> reply;
  if (!RunOperation(request, &reply)) {
    return false;
  }
  return reply[0] == i2c::kCeResOk && reply[1] == 1;
}

void HybridDriver::RecoverBus() {
  ++recovery_counters_.bus_recoveries;
  const double half_ns = config_.timing.half_cycle_ticks * config_.timing.clock_ns;
  // Nine clock pulses: a responder left mid-read releases SDA within nine
  // clocks; the manufactured STOP then returns every device FSM to idle.
  for (int i = 0; i < 9; ++i) {
    bus_.SetDriver(recovery_driver_id_, /*scl=*/false, /*sda=*/true);
    Idle(half_ns);
    bus_.SetDriver(recovery_driver_id_, /*scl=*/true, /*sda=*/true);
    Idle(half_ns);
  }
  bus_.SetDriver(recovery_driver_id_, /*scl=*/true, /*sda=*/false);
  Idle(half_ns);
  bus_.SetDriver(recovery_driver_id_, /*scl=*/true, /*sda=*/true);
  Idle(half_ns);
}

bool HybridDriver::WaitBusFree() {
  if (second_master_ == nullptr) {
    return true;  // single-master bus: nothing to wait for, no time spent
  }
  const double deadline = now_ns() + config_.recovery.bus_free_timeout_ns;
  const double poll_ns = config_.timing.half_cycle_ticks * config_.timing.clock_ns;
  bool found_owned = false;
  int idle_polls = 0;
  // Two consecutive idle samples a half cycle apart: a single high read
  // could land inside the owner's clock high phase.
  while (idle_polls < 2) {
    SyncRtl();
    if (bus_.scl() && bus_.sda()) {
      ++idle_polls;
    } else {
      idle_polls = 0;
      found_owned = true;
    }
    if (now_ns() > deadline) {
      return false;
    }
    Idle(poll_ns);
  }
  if (found_owned) {
    ++recovery_counters_.arbitration_waits;
  }
  return true;
}

bool HybridDriver::SelectMuxOnce(int mask) {
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActWrite;
  request[1] = config_.mux_topology.mux.address;
  request[2] = 0;
  request[3] = 1;
  request[4] = mask;
  std::vector<int32_t> reply;
  if (!Transact(request, &reply)) {
    return false;
  }
  // The mux ACKs a select even when its latch is stuck; only the read-back
  // proves the control register took the mask. (A misrouted latch passes
  // this check by design -- that one surfaces as NACKs on the device and is
  // healed by the re-select after the supervisor's reset rung.)
  request[0] = i2c::kCeActRead;
  request[4] = 0;
  if (!Transact(request, &reply)) {
    return false;
  }
  return reply[0] == i2c::kCeResOk && reply[1] == 1 && (reply[2] & 0xFF) == mask;
}

bool HybridDriver::EnsureMuxSelected() {
  if (!config_.mux_topology.enabled || mux_selected_) {
    return true;
  }
  const int mask = 1 << config_.mux_topology.device_channel;
  const int attempts = config_.recovery.enabled ? config_.recovery.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    ++recovery_counters_.mux_selects;
    if (SelectMuxOnce(mask)) {
      mux_selected_ = true;
      return true;
    }
    if (wedged_) {
      return false;
    }
  }
  return false;
}

bool HybridDriver::Read(int offset, int length, std::vector<uint8_t>* out) {
  return ReadFrom(config_.eeprom.address, offset, length, out);
}

bool HybridDriver::Write(int offset, const std::vector<uint8_t>& data) {
  return WriteTo(config_.eeprom.address, offset, data);
}

bool HybridDriver::ReadFrom(int bus_address, int offset, int length,
                            std::vector<uint8_t>* out) {
  assert(length >= 1 && length <= 14);
  if (!EnsureMuxSelected()) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActRead;
  request[1] = bus_address;
  request[2] = offset;
  request[3] = length;
  std::vector<int32_t> reply;
  if (!Transact(request, &reply)) {
    return false;
  }
  if (reply[1] != length) {
    return false;
  }
  if (out != nullptr) {
    out->clear();
    for (int i = 0; i < length; ++i) {
      out->push_back(static_cast<uint8_t>(reply[2 + i]));
    }
  }
  return true;
}

bool HybridDriver::WriteTo(int bus_address, int offset, const std::vector<uint8_t>& data) {
  assert(!data.empty() && data.size() <= 14);
  if (!EnsureMuxSelected()) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActWrite;
  request[1] = bus_address;
  request[2] = offset;
  request[3] = static_cast<int32_t>(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    request[4 + i] = data[i];
  }
  std::vector<int32_t> reply;
  return Transact(request, &reply);
}

DriverMetrics HybridDriver::MeasureReads(int ops, int length) {
  DriverMetrics metrics;
  // Warm-up read so the measurement covers steady state.
  std::vector<uint8_t> data;
  if (!Read(0, length, &data)) {
    metrics.functional = false;
    metrics.note = "warm-up read failed";
    return metrics;
  }
  bus_.ClearSamples();
  double start_busy = cpu_busy_ns_;
  double start_time = now_ns();
  uint64_t start_irqs = irq_count_;
  uint64_t start_steps = sw_.TotalSteps();
  uint64_t start_bursts = mmio_bursts_;
  uint64_t start_coalesced = irqs_coalesced_;
  const uint64_t start_vm_host_ticks = vm_host_ticks_;
  const uint64_t start_ticked = rtl_.cycles_ticked();
  for (int i = 0; i < ops; ++i) {
    if (!Read(0, length, &data)) {
      metrics.functional = false;
      metrics.note = "read failed";
      return metrics;
    }
  }
  metrics.elapsed_ns = now_ns() - start_time;
  metrics.rtl_cycles_ticked = rtl_.cycles_ticked() - start_ticked;
  metrics.cpu_usage = (cpu_busy_ns_ - start_busy) / metrics.elapsed_ns;
  metrics.irq_count = irq_count_ - start_irqs;
  metrics.instructions_retired = sw_.TotalSteps() - start_steps;
  metrics.mmio_bursts = mmio_bursts_ - start_bursts;
  metrics.irqs_coalesced = irqs_coalesced_ - start_coalesced;
  metrics.vm_host_seconds =
      static_cast<double>(vm_host_ticks_ - start_vm_host_ticks) / TicksPerSecond();
  metrics.frequency = sim::AnalyzeSclFrequency(bus_.samples());
  metrics.recovery = recovery_counters_;
  metrics.faults_injected = fault_plan_.faults_injected();
  metrics.monitor = MonitorCounters();
  if (config_.split == SplitPoint::kElectrical && config_.interrupt_driven) {
    // Platform constraint reproduced from the paper (section 5.2): the
    // interrupt-driven Electrical driver does not function correctly due to
    // excessive interrupts — one per bus half cycle exceeds what the Linux
    // UIO interrupt path sustains.
    metrics.functional = false;
    metrics.note = "does not function: excessive interrupts (one per half cycle)";
  }
  return metrics;
}

monitor::TripCounters HybridDriver::MonitorCounters() const {
  monitor::TripCounters merged;
  if (shadow_) {
    merged.Merge(shadow_->counters());
  }
  if (watcher_) {
    merged.Merge(watcher_->counters());
  }
  return merged;
}

uint64_t HybridDriver::ConsumeMonitorTrips() {
  const uint64_t total = MonitorCounters().total;
  const uint64_t fresh = total - consumed_monitor_trips_;
  consumed_monitor_trips_ = total;
  return fresh;
}

std::vector<const ir::Module*> HybridDriver::HardwareModules() const {
  std::vector<const ir::Module*> modules;
  for (const auto& module : hw_modules_) {
    modules.push_back(&module->module());
  }
  return modules;
}

}  // namespace efeu::driver
