#include "src/driver/baselines.h"

#include <cassert>

#include "src/i2c/codes.h"
#include "src/i2c/stack.h"

namespace efeu::driver {

// ---------------------------------------------------------------------------
// BitBangDriver
// ---------------------------------------------------------------------------

BitBangDriver::BitBangDriver(const TimingModel& timing, const sim::EepromConfig& eeprom,
                             bool capture_waveform, const sim::FaultPlan& fault_plan,
                             const RecoveryPolicy& recovery)
    : DriverCore(timing, fault_plan, recovery, capture_waveform),
      eeprom_address_(eeprom.address) {
  DiagnosticEngine diag;
  compilation_ = i2c::CompileControllerStack(diag);
  assert(compilation_ != nullptr);
  const esi::SystemInfo& info = compilation_->system();

  gpio_driver_id_ = bus_.AddDriver();
  AddEeprom(&bus_, eeprom);

  const int bottom = WireSoftwareStack(4);
  levels_out_ = sw_.FindPort(bottom, info.FindChannel("CSymbol", "Electrical"), true);
  levels_in_ = sw_.FindPort(bottom, info.FindChannel("Electrical", "CSymbol"), false);
  sw_.Run();
  last_sw_steps_ = sw_.TotalSteps();
}

BitBangDriver::~BitBangDriver() = default;

bool BitBangDriver::RunOperation(std::span<const int32_t> request,
                                 std::vector<int32_t>* reply) {
  // Let the top layer return to its request-receive point first.
  sw_.Run();
  if (shadow_) {
    ShadowBusy(request.size());
    shadow_->OnDownMessage(request);
  }
  bool delivered = sw_.DeliverMessage(top_in_, request);
  assert(delivered);
  (void)delivered;
  constexpr int kMaxPumps = 1 << 22;
  const double op_deadline = sw_time_ns_ + recovery_.op_deadline_ns;
  for (int pump = 0; pump < kMaxPumps; ++pump) {
    sw_.Run();
    BillSoftwareSteps();
    if (recovery_.enabled && sw_time_ns_ > op_deadline) {
      if (shadow_) {
        ShadowBusy(0);
        shadow_->OnWaitTimeout();
      }
      return false;
    }
    if (sw_.WantsToSend(top_out_)) {
      std::optional<std::vector<int32_t>> result = sw_.TakeMessage(top_out_);
      *reply = std::move(*result);
      if (shadow_) {
        ShadowBusy(reply->size());
        shadow_->OnUpMessage(*reply);
      }
      return true;
    }
    if (sw_.WantsToSend(levels_out_)) {
      // One electrical half cycle, paced entirely by software: set both GPIO
      // lines, wait the configured delay, then sample them back.
      std::optional<std::vector<int32_t>> levels = sw_.TakeMessage(levels_out_);
      bool new_scl = (*levels)[0] != 0;
      bool new_sda = (*levels)[1] != 0;
      // GPIO ordering discipline: when raising SCL, settle SDA first (data
      // changes while the clock is low); when lowering SCL, drop the clock
      // before touching SDA. Deliberate START/STOP transitions keep SCL high
      // and only move SDA.
      if (new_scl) {
        Busy(timing_.gpio_write_ns);
        SyncRtl();
        gpio_sda_ = new_sda;
        bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
        Busy(timing_.gpio_write_ns);
        SyncRtl();
        gpio_scl_ = new_scl;
        bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
      } else {
        Busy(timing_.gpio_write_ns);
        SyncRtl();
        gpio_scl_ = new_scl;
        bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
        Busy(timing_.gpio_write_ns);
        SyncRtl();
        gpio_sda_ = new_sda;
        bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
      }
      Busy(timing_.gpio_udelay_ns);
      SyncRtl();
      Busy(timing_.gpio_read_ns);
      SyncRtl();
      fault_plan_.StepLineFaults(&bus_);
      int32_t scl = bus_.scl() ? 1 : 0;
      Busy(timing_.gpio_read_ns);
      SyncRtl();
      int32_t sda = bus_.sda() ? 1 : 0;
      // ACK-window glitch: the controller released SDA and a responder pulls
      // it low; a glitch makes the sampled level read high instead.
      if (sda == 0 && gpio_sda_ && fault_plan_.ConsultAckGlitch()) {
        sda = 1;
      }
      std::vector<int32_t> sample = {scl, sda};
      // Let the stack reach its receive before delivering the sample.
      sw_.Run();
      bool ok = sw_.DeliverMessage(levels_in_, sample);
      assert(ok);
      (void)ok;
      continue;
    }
    if (sw_.WantsToRecv(levels_in_)) {
      // CSymbol read without a pending send cannot happen in this stack.
      assert(false && "unexpected bottom-layer state");
    }
  }
  return false;
}

bool BitBangDriver::Transact(std::span<const int32_t> request, std::vector<int32_t>* reply) {
  return DriverCore::Transact(
      [&]() -> std::optional<int32_t> {
        if (!RunOperation(request, reply)) {
          return std::nullopt;
        }
        return (*reply)[0];
      },
      [this](bool) {
        // The CPU spins through every level, and the GPIO lines end released.
        RecoverBus(gpio_driver_id_, [this] {
          Busy(timing_.gpio_write_ns + timing_.gpio_udelay_ns);
          SyncRtl();
        });
        gpio_scl_ = true;
        gpio_sda_ = true;
      },
      [this] { return sw_time_ns_; });
}

void BitBangDriver::SoftReset() {
  ResetBookkeeping();
  // All-software driver: coroutine reinit is the whole reset. Release both
  // GPIO lines so the bus floats back to idle.
  sw_.Reset();
  sw_.Run();
  last_sw_steps_ = sw_.TotalSteps();
  gpio_scl_ = true;
  gpio_sda_ = true;
  bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
  Busy(2 * timing_.gpio_write_ns);
  SyncRtl();
}

bool BitBangDriver::Probe() {
  return ProbeDevice(eeprom_address_,
                     [this](std::span<const int32_t> request, std::vector<int32_t>* reply) {
                       return RunOperation(request, reply);
                     });
}

bool BitBangDriver::Read(int offset, int length, std::vector<uint8_t>* out) {
  std::vector<int32_t> reply;
  return Transact(ReadRequest(eeprom_address_, offset, length), &reply) &&
         DecodeRead(reply, length, out);
}

bool BitBangDriver::Write(int offset, const std::vector<uint8_t>& data) {
  std::vector<int32_t> reply;
  return Transact(WriteRequest(eeprom_address_, offset, data), &reply);
}

DriverMetrics BitBangDriver::MeasureReads(int ops, int length) {
  return DriverCore::MeasureReads(
      ops, [&](std::vector<uint8_t>* data) { return Read(0, length, data); },
      [] { return ExecCounters{}; });
}

void BitBangDriver::EnableMonitors(monitor::BusWatcherOptions options) {
  if (shadow_) {
    return;
  }
  const esi::SystemInfo& info = compilation_->system();
  monitor_spec_ = monitor::MonitorSpec::FromSystem(info, info.FindChannel("CWorld", "CEepDriver"),
                                                   info.FindChannel("CEepDriver", "CWorld"));
  AttachMonitors(&monitor_spec_, /*regfile=*/nullptr, options);
}

// ---------------------------------------------------------------------------
// XilinxIpDriver
// ---------------------------------------------------------------------------

XilinxIpDriver::XilinxIpDriver(const TimingModel& timing, const sim::EepromConfig& eeprom,
                               bool capture_waveform, const sim::FaultPlan& fault_plan)
    : DriverCore(timing, fault_plan, RecoveryPolicy{}, capture_waveform),
      eeprom_address_(eeprom.address) {
  engine_ = std::make_unique<sim::XilinxIpEngine>(&bus_, timing.half_cycle_ticks,
                                                  timing.xilinx_interbyte_gap_ticks);
  rtl_.AddComponent(engine_.get());
  AddEeprom(&bus_, eeprom);
}

XilinxIpDriver::~XilinxIpDriver() = default;

std::optional<int32_t> XilinxIpDriver::RunEngine(int payload_bytes) {
  // Driver setup: program the transaction into the TX FIFO.
  cpu_busy_ns_ += timing_.xilinx_setup_writes * timing_.mmio_write_ns;
  constexpr double kTimeoutNs = 2e9;
  // Steps over the engine's holds. The edge that finishes the transaction
  // is never idle, so the wait stops right after it, as a per-edge loop does.
  const uint64_t deadline = rtl_.CycleReaching(rtl_.time_ns() + kTimeoutNs);
  while (!engine_->done() && rtl_.cycles() < deadline) {
    rtl_.Step(deadline - rtl_.cycles());
  }
  if (!engine_->done()) {
    if (shadow_) {
      shadow_->OnWaitTimeout();
    }
    return std::nullopt;
  }
  if (engine_->ack_failure()) {
    return i2c::kCeResNack;
  }
  // Boundary fault: the completion interrupt is lost; the driver's blocking
  // wait gives up even though the engine finished (timeout modeled as an
  // immediate failure so the simulation need not tick through it).
  if (fault_plan_.Consult(sim::FaultKind::kDroppedInterrupt) > 0) {
    if (shadow_) {
      shadow_->OnWaitTimeout();
    }
    return std::nullopt;
  }
  // Boundary fault: a spurious FIFO interrupt costs one extra service pass.
  if (fault_plan_.Consult(sim::FaultKind::kSpuriousInterrupt) > 0) {
    ++irq_count_;
    cpu_busy_ns_ += timing_.xilinx_byte_irq_ns;
    if (shadow_) {
      shadow_->OnSpuriousWakeup();
    }
  }
  // FIFO-service interrupt per payload byte plus the completion interrupt.
  irq_count_ += static_cast<uint64_t>(payload_bytes) + 1;
  cpu_busy_ns_ += (payload_bytes + 1) * timing_.xilinx_byte_irq_ns;
  return i2c::kCeResOk;
}

bool XilinxIpDriver::Read(int offset, int length, std::vector<uint8_t>* out) {
  const bool ok = Transact(
      [&] {
        engine_->StartRead(eeprom_address_, offset, length);
        return RunEngine(length);
      },
      [](bool) {}, [this] { return now_ns(); });
  if (ok && out != nullptr) {
    *out = engine_->read_data();
  }
  return ok;
}

bool XilinxIpDriver::Write(int offset, const std::vector<uint8_t>& data) {
  return Transact(
      [&] {
        engine_->StartWrite(eeprom_address_, offset, data);
        return RunEngine(static_cast<int>(data.size()));
      },
      [](bool) {}, [this] { return now_ns(); });
}

void XilinxIpDriver::SoftReset() {
  ResetBookkeeping();
  // The AXI IIC SOFTR register: abandon the queued transaction, release the
  // bus, clear the wedged flag. One MMIO write.
  engine_->SoftReset();
  cpu_busy_ns_ += timing_.mmio_write_ns;
}

bool XilinxIpDriver::Probe() {
  ++recovery_counters_.reprobes;
  std::vector<uint8_t> data;
  // Probing costs an attempt through the normal read path (single byte).
  bool ok = Read(0, 1, &data);
  return ok && data.size() == 1;
}

DriverMetrics XilinxIpDriver::MeasureReads(int ops, int length) {
  return DriverCore::MeasureReads(
      ops, [&](std::vector<uint8_t>* data) { return Read(0, length, data); },
      [] { return ExecCounters{}; });
}

void XilinxIpDriver::EnableMonitors(monitor::BusWatcherOptions options) {
  // No generated boundary spec: the shadow checker contributes only the
  // wait-deadline and spurious-interrupt checks.
  if (!shadow_) {
    AttachMonitors(/*spec=*/nullptr, /*regfile=*/nullptr, options);
  }
}

}  // namespace efeu::driver
