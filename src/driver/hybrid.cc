#include "src/driver/hybrid.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
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

// Index of the topmost hardware layer in kControllerLayers; 4 = none
// (Electrical).
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

HybridDriver::HybridDriver(const HybridConfig& config)
    : DriverCore(config.timing, config.fault_plan, config.recovery, config.capture_waveform),
      config_(config) {
  if (config_.shared_compilation != nullptr) {
    compilation_ = config_.shared_compilation;
  } else {
    DiagnosticEngine diag;
    compilation_ = i2c::CompileControllerStack(diag);
  }
  assert(compilation_ != nullptr && "controller stack failed to compile");
  const esi::SystemInfo& info = compilation_->system();

  // ---- Bus, topology, devices, adapter --------------------------------
  adapter_ = std::make_unique<sim::BusAdapter>(&bus_, timing_.half_cycle_ticks,
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
    master_config.clock_ns = timing_.clock_ns;
    second_master_ = std::make_unique<sim::SecondMaster>(&bus_, master_config);
    rtl_.AddComponent(second_master_.get());
  }
  AddEeprom(device_bus, config_.eeprom);
  for (const sim::EepromConfig& extra : config_.extra_eeproms) {
    sim::EepromConfig cfg = extra;
    cfg.clock_ns = timing_.clock_ns;
    extra_eeproms_.push_back(std::make_unique<sim::Eeprom24aa512>(device_bus, cfg));
    rtl_.AddComponent(extra_eeproms_.back().get());
  }
  for (const sim::MfdConfig& mfd_config : config_.mfd_devices) {
    mfds_.push_back(std::make_unique<sim::MfdRegFileDevice>(device_bus, mfd_config));
    rtl_.AddComponent(mfds_.back().get());
  }
  // Fault injection: the driver owns the live plan; the adapter injects the
  // electrical faults, the primary EEPROM the device-side ones, the topology
  // components the fabric ones. The recovery driver releases both lines
  // until a bus-recovery sequence runs, so an inactive plan leaves the bus
  // byte-identical to the ideal one.
  adapter_->SetFaultPlan(&fault_plan_);
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

  // ---- Boundary channels -------------------------------------------------
  int first_hw = FirstHardwareLayer(config_.split);
  std::string upper = first_hw == 0 ? "CWorld" : kControllerLayers[first_hw - 1];
  std::string lower = first_hw == 4 ? "Electrical" : kControllerLayers[first_hw];
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
      const ir::Module* module = compilation_->FindModule(kControllerLayers[i]);
      assert(module != nullptr);
      hw_modules_.push_back(std::make_unique<rtl::RtlModule>(module, kControllerLayers[i]));
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
    monitor::BusWatcherOptions watcher_options = config_.watcher;
    if (config_.split == SplitPoint::kElectrical) {
      // At the Electrical split every half cycle crosses the MMIO boundary,
      // so the software (MMIO accesses, interrupt entry/exit, VM steps)
      // paces the bus and legal low runs stretch by orders of magnitude.
      // Widen the window accordingly; detection stays bounded.
      watcher_options.stuck_low_limit *= 64;
      watcher_options.handshake_limit *= 4;
    }
    AttachMonitors(&monitor_spec_, regfile_.get(), watcher_options);
  }

  // ---- Software side ------------------------------------------------------
  sw_empty_ = first_hw == 0;
  if (!sw_empty_) {
    const int bottom = WireSoftwareStack(first_hw);
    boundary_down_ = sw_.FindPort(bottom, down_channel, /*is_send=*/true);
    boundary_up_ = sw_.FindPort(bottom, up_channel, /*is_send=*/false);
    // Let every layer reach its initial blocking point (startup, not timed).
    RunSw();
    last_sw_steps_ = sw_.TotalSteps();
  }
  up_words_read_.resize(static_cast<size_t>(up_words_));
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

double HybridDriver::BurstCost(double first_ns, int words) const {
  return first_ns + timing_.mmio_burst_word_ns * static_cast<double>(std::max(0, words - 1));
}

bool HybridDriver::WaitUpMessage() {
  // A realistic driver timeout, relative to when this wait started.
  const double deadline = now_ns() + recovery_.wait_timeout_ns;
  if (!config_.interrupt_driven) {
    // Boundary fault: a corrupted STATUS read makes the poll loop see "not
    // ready" for `corrupt` polls even after the message landed.
    int corrupt = fault_plan_.Consult(sim::FaultKind::kCorruptedMmioRead);
    // Polling: spin on the UP_VALID register.
    while (true) {
      Busy(timing_.mmio_read_ns);
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
      Busy(timing_.mmio_read_ns);
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
    double spurious_busy = timing_.irq_overhead_ns * timing_.irq_busy_fraction;
    sw_time_ns_ += timing_.irq_overhead_ns - spurious_busy;
    Busy(spurious_busy);
    ++irq_count_;
    Busy(timing_.mmio_read_ns);  // status read: nothing pending
    SyncRtl();
    Busy(timing_.irq_exit_ns);
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
  double busy_part = timing_.irq_overhead_ns * timing_.irq_busy_fraction;
  sw_time_ns_ += timing_.irq_overhead_ns - busy_part;
  Busy(busy_part);
  ++irq_count_;
  // Read the status/valid register once after wakeup.
  Busy(timing_.mmio_read_ns);
  SyncRtl();
  Busy(timing_.irq_exit_ns);
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

void HybridDriver::WriteDownMessage(std::span<const int32_t> message) {
  // In the talk protocol the previous send was necessarily consumed before
  // its reply arrived, so no valid-flag readback is needed.
  assert(config_.ablate_no_auto_reset || !regfile_->DownPending());
  if (config_.mmio_bursts && down_words_ > 1) {
    Busy(BurstCost(timing_.mmio_write_ns, down_words_));
    SyncRtl();
    regfile_->WriteDown(message);
    ++mmio_bursts_;
  } else {
    for (int i = 0; i < down_words_; ++i) {
      Busy(timing_.mmio_write_ns);
      SyncRtl();
      regfile_->WriteDownWord(i, message[i]);
    }
  }
  // The DOWN_VALID doorbell write.
  Busy(timing_.mmio_write_ns);
  SyncRtl();
}

bool HybridDriver::ReceiveUpMessage(std::span<const int32_t>* message) {
  Busy(timing_.mmio_write_ns);
  SyncRtl();
  // Boundary fault: the UP_READY write is lost, so the up ready/valid
  // handshake never completes and the message never lands.
  if (fault_plan_.Consult(sim::FaultKind::kStalledUpMessage) == 0) {
    regfile_->ArmUp();
  }
  if (!WaitUpMessage()) {
    return false;
  }
  // With bursts the span aliases the latch registers straight through
  // shadow checking and channel delivery (no intermediate copy); the latch
  // cannot be overwritten before the next ArmUp().
  if (config_.mmio_bursts && up_words_ > 1) {
    Busy(BurstCost(timing_.mmio_read_ns, up_words_));
    *message = regfile_->ReadUp();
    ++mmio_bursts_;
  } else {
    for (int i = 0; i < up_words_; ++i) {
      Busy(timing_.mmio_read_ns);
      up_words_read_[static_cast<size_t>(i)] = regfile_->ReadUpWord(i);
    }
    *message = up_words_read_;
  }
  SyncRtl();
  regfile_->ConsumeUp();
  return true;
}

bool HybridDriver::PumpOnce() {
  if (!sw_empty_) {
    vm::SystemState state = RunSw();
    assert(state != vm::SystemState::kFailed);
    (void)state;
    BillSoftwareSteps();

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
      WriteDownMessage(*msg);
      // Boundary fault: the DOWN_VALID doorbell write is silently dropped on
      // the interconnect; hardware never learns about the message.
      if (fault_plan_.Consult(sim::FaultKind::kLostDoorbell) == 0) {
        regfile_->SetDownValid();
      }
      return false;
    }
    if (sw_.WantsToRecv(boundary_up_)) {
      std::span<const int32_t> msg;
      if (!ReceiveUpMessage(&msg)) {
        // The hardware missed its deadline with the software stack blocked
        // mid-protocol: surface a terminal failure instead of hanging.
        pump_dead_ = true;
        return true;
      }
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

bool HybridDriver::RunOperation(std::span<const int32_t> request, std::vector<int32_t>* reply) {
  if (sw_empty_) {
    // Whole stack in hardware: the application performs the MMIO itself.
    // The shadow checker bills between the doorbell write and DOWN_VALID.
    Busy(timing_.op_setup_ns);
    WriteDownMessage(request);
    if (shadow_) {
      ShadowBusy(request.size());
      shadow_->OnDownMessage(request);
    }
    if (fault_plan_.Consult(sim::FaultKind::kLostDoorbell) == 0) {
      regfile_->SetDownValid();
    }
    std::span<const int32_t> up;
    if (!ReceiveUpMessage(&up)) {
      return false;
    }
    reply->assign(up.begin(), up.end());
    if (shadow_) {
      ShadowBusy(reply->size());
      shadow_->OnUpMessage(*reply);
    }
    Busy(timing_.op_setup_ns);
    return true;
  }

  // Let the top layer return to its request-receive point first.
  RunSw();
  bool delivered = sw_.DeliverMessage(top_in_, request);
  assert(delivered && "stack not ready for a new operation");
  (void)delivered;
  constexpr int kMaxPumps = 1 << 22;
  const double op_deadline = recovery_.enabled ? now_ns() + recovery_.op_deadline_ns : 0;
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
    if (recovery_.enabled && now_ns() > op_deadline) {
      return false;
    }
  }
  return false;
}

bool HybridDriver::Transact(std::span<const int32_t> request, std::vector<int32_t>* reply) {
  return DriverCore::Transact(
      [&]() -> std::optional<int32_t> {
        if (!RunOperation(request, reply)) {
          return std::nullopt;
        }
        return (*reply)[0];
      },
      [this](bool timed_out) {
        // A bus owned by a competing master is busy, not stuck: nine pulses
        // would fight the owner mid-byte. The supervisor's WaitBusFree rung
        // handles that case; the pulses stay for genuinely stuck lines.
        if (timed_out && second_master_ != nullptr && second_master_->holding()) {
          return;
        }
        const double half_ns = timing_.half_cycle_ticks * timing_.clock_ns;
        RecoverBus(recovery_driver_id_, [&] { Idle(half_ns); });
      },
      [this] { return now_ns(); });
}

bool HybridDriver::TransactOnDevice(const Request& request, std::vector<int32_t>* reply) {
  if (!EnsureMuxSelected()) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  return Transact(request, reply);
}

void HybridDriver::SoftReset() {
  ResetBookkeeping();
  // Hardware side: every layer FSM, the adapter and the register file back
  // to their initial state. Component resets publish deasserted handshake
  // flags at their next Commit at the earliest, so clear the wires directly
  // too — a peer must not observe a stale pre-reset valid/ready.
  for (const std::unique_ptr<rtl::RtlModule>& module : hw_modules_) {
    module->Reset();
  }
  adapter_->Reset();
  regfile_->SoftReset();
  rtl_.ResetWires();
  bus_.SetDriver(recovery_driver_id_, /*scl=*/true, /*sda=*/true);
  // Software side: coroutine reinit, then run every layer back to its
  // initial blocking point (startup, not timed).
  if (!sw_empty_) {
    sw_.Reset();
    RunSw();
    last_sw_steps_ = sw_.TotalSteps();
  }
  pump_dead_ = false;
  irq_drain_deadline_ns_ = 0;
  // The reset may have been provoked by a mux that silently lost (or never
  // took) its routing; drop the cached select so the next operation re-
  // programs and re-verifies it.
  mux_selected_ = false;
  // One SOFT_RESET register write, then let the hardware settle into its
  // initial handshakes again.
  Busy(timing_.mmio_write_ns);
  SyncRtl();
  rtl_.Advance(32);
  sw_time_ns_ = std::max(sw_time_ns_, rtl_.time_ns());
}

bool HybridDriver::Probe() {
  // Behind a mux the device is unreachable until the select is re-verified
  // (the preceding SoftReset dropped the cache).
  return ProbeDevice(config_.eeprom.address,
                     [this](std::span<const int32_t> request, std::vector<int32_t>* reply) {
                       return EnsureMuxSelected() && RunOperation(request, reply);
                     });
}

bool HybridDriver::WaitBusFree() {
  if (second_master_ == nullptr) {
    return true;  // single-master bus: nothing to wait for, no time spent
  }
  const double deadline = now_ns() + recovery_.bus_free_timeout_ns;
  const double poll_ns = timing_.half_cycle_ticks * timing_.clock_ns;
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
  const int address = config_.mux_topology.mux.address;
  const uint8_t select[] = {static_cast<uint8_t>(mask)};
  std::vector<int32_t> reply;
  if (!Transact(WriteRequest(address, 0, select), &reply)) {
    return false;
  }
  // The mux ACKs a select even when its latch is stuck; only the read-back
  // proves the control register took the mask. (A misrouted latch passes
  // this check by design -- that one surfaces as NACKs on the device and is
  // healed by the re-select after the supervisor's reset rung.)
  if (!Transact(ReadRequest(address, 0, 1), &reply)) {
    return false;
  }
  return reply[0] == i2c::kCeResOk && reply[1] == 1 && (reply[2] & 0xFF) == mask;
}

bool HybridDriver::EnsureMuxSelected() {
  if (!config_.mux_topology.enabled || mux_selected_) {
    return true;
  }
  const int mask = 1 << config_.mux_topology.device_channel;
  const int attempts = recovery_.enabled ? recovery_.max_attempts : 1;
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
  std::vector<int32_t> reply;
  return TransactOnDevice(ReadRequest(bus_address, offset, length), &reply) &&
         DecodeRead(reply, length, out);
}

bool HybridDriver::WriteTo(int bus_address, int offset, const std::vector<uint8_t>& data) {
  std::vector<int32_t> reply;
  return TransactOnDevice(WriteRequest(bus_address, offset, data), &reply);
}

DriverMetrics HybridDriver::MeasureReads(int ops, int length) {
  DriverMetrics metrics = DriverCore::MeasureReads(
      ops, [&](std::vector<uint8_t>* data) { return Read(0, length, data); },
      [this] {
        return ExecCounters{sw_.TotalSteps(), mmio_bursts_, irqs_coalesced_, vm_host_seconds()};
      });
  if (metrics.functional && config_.split == SplitPoint::kElectrical &&
      config_.interrupt_driven) {
    // Platform constraint reproduced from the paper (section 5.2): the
    // interrupt-driven Electrical driver does not function correctly due to
    // excessive interrupts — one per bus half cycle exceeds what the Linux
    // UIO interrupt path sustains.
    metrics.functional = false;
    metrics.note = "does not function: excessive interrupts (one per half cycle)";
  }
  return metrics;
}

std::vector<const ir::Module*> HybridDriver::HardwareModules() const {
  std::vector<const ir::Module*> modules;
  for (const auto& module : hw_modules_) {
    modules.push_back(&module->module());
  }
  return modules;
}

}  // namespace efeu::driver
