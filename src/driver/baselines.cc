#include "src/driver/baselines.h"

#include <algorithm>
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
    : timing_(timing), rtl_(timing.clock_ns), eeprom_address_(eeprom.address),
      fault_plan_(fault_plan), recovery_(recovery) {
  DiagnosticEngine diag;
  compilation_ = i2c::CompileControllerStack(diag);
  assert(compilation_ != nullptr);
  const esi::SystemInfo& info = compilation_->system();

  gpio_driver_id_ = bus_.AddDriver();
  sim::EepromConfig eeprom_config = eeprom;
  eeprom_config.clock_ns = timing.clock_ns;
  eeprom_ = std::make_unique<sim::Eeprom24aa512>(&bus_, eeprom_config);
  eeprom_->SetFaultPlan(&fault_plan_);
  rtl_.AddComponent(eeprom_.get());
  if (capture_waveform) {
    bus_.EnableCapture(true);
    rtl_.SetPostTickHook([this](double now) { bus_.Capture(now); });
  }
  last_status_ = i2c::kCeResOk;

  const char* layers[] = {"CEepDriver", "CTransaction", "CByte", "CSymbol"};
  std::vector<int> procs;
  for (const char* layer : layers) {
    procs.push_back(sw_.AddProcess(compilation_->FindModule(layer), layer));
  }
  for (size_t i = 0; i + 1 < procs.size(); ++i) {
    const esi::ChannelInfo* d = info.FindChannel(layers[i], layers[i + 1]);
    const esi::ChannelInfo* u = info.FindChannel(layers[i + 1], layers[i]);
    sw_.Connect(sw_.FindPort(procs[i], d, true), sw_.FindPort(procs[i + 1], d, false));
    sw_.Connect(sw_.FindPort(procs[i + 1], u, true), sw_.FindPort(procs[i], u, false));
  }
  top_in_ = sw_.FindPort(procs.front(), info.FindChannel("CWorld", "CEepDriver"), false);
  top_out_ = sw_.FindPort(procs.front(), info.FindChannel("CEepDriver", "CWorld"), true);
  levels_out_ = sw_.FindPort(procs.back(), info.FindChannel("CSymbol", "Electrical"), true);
  levels_in_ = sw_.FindPort(procs.back(), info.FindChannel("Electrical", "CSymbol"), false);
  sw_.Run();
  last_sw_steps_ = sw_.TotalSteps();
}

BitBangDriver::~BitBangDriver() = default;

void BitBangDriver::Busy(double ns) {
  sw_time_ns_ += ns;
  cpu_busy_ns_ += ns;
}

void BitBangDriver::Idle(double ns) {
  sw_time_ns_ += ns;
  SyncRtl();
}

void BitBangDriver::SyncRtl() { rtl_.TickUntil(sw_time_ns_); }

bool BitBangDriver::RunOperation(const std::vector<int32_t>& request,
                                 std::vector<int32_t>* reply) {
  // Let the top layer return to its request-receive point first.
  sw_.Run();
  if (shadow_) {
    // The shadow checker is driver software: bill a bounds compare per word.
    Busy(timing_.sw_instr_ns * static_cast<double>(4 + 3 * request.size()));
    shadow_->OnDownMessage(request);
  }
  bool delivered = sw_.DeliverMessage(top_in_, request);
  assert(delivered);
  (void)delivered;
  constexpr int kMaxPumps = 1 << 22;
  const double op_deadline = sw_time_ns_ + recovery_.op_deadline_ns;
  for (int pump = 0; pump < kMaxPumps; ++pump) {
    sw_.Run();
    uint64_t steps = sw_.TotalSteps();
    Busy(static_cast<double>(steps - last_sw_steps_) * timing_.sw_instr_ns);
    last_sw_steps_ = steps;
    if (recovery_.enabled && sw_time_ns_ > op_deadline) {
      if (shadow_) {
        Busy(timing_.sw_instr_ns * 4);
        shadow_->OnWaitTimeout();
      }
      return false;
    }
    if (sw_.WantsToSend(top_out_)) {
      std::optional<std::vector<int32_t>> result = sw_.TakeMessage(top_out_);
      *reply = std::move(*result);
      if (shadow_) {
        Busy(timing_.sw_instr_ns * static_cast<double>(4 + 3 * reply->size()));
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

bool BitBangDriver::Transact(const std::vector<int32_t>& request, std::vector<int32_t>* reply) {
  if (wedged_) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  double backoff = recovery_.initial_backoff_ns;
  const double deadline = sw_time_ns_ + recovery_.op_deadline_ns;
  for (int attempt = 1;; ++attempt) {
    ++recovery_counters_.attempts;
    if (!RunOperation(request, reply)) {
      ++recovery_counters_.timeouts;
      wedged_ = true;
      last_status_ = i2c::kCeResFail;
      if (recovery_.enabled && recovery_.bus_recovery) {
        RecoverBus();
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
      if (recovery_.enabled && recovery_.bus_recovery) {
        RecoverBus();
      }
    }
    if (!recovery_.enabled || attempt >= recovery_.max_attempts) {
      return false;
    }
    if (sw_time_ns_ + backoff > deadline) {
      ++recovery_counters_.deadline_hits;
      return false;
    }
    ++recovery_counters_.retries;
    recovery_counters_.backoff_ns += backoff;
    Idle(backoff);
    backoff = std::min(backoff * recovery_.backoff_multiplier, recovery_.max_backoff_ns);
  }
}

void BitBangDriver::RecoverBus() {
  ++recovery_counters_.bus_recoveries;
  const double half_ns = timing_.gpio_udelay_ns;
  // Release SDA, pulse SCL nine times: a responder stranded mid-read lets go
  // of SDA within nine clocks.
  gpio_sda_ = true;
  for (int i = 0; i < 9; ++i) {
    gpio_scl_ = false;
    bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
    Busy(timing_.gpio_write_ns + half_ns);
    SyncRtl();
    gpio_scl_ = true;
    bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
    Busy(timing_.gpio_write_ns + half_ns);
    SyncRtl();
  }
  // Manufactured START then STOP returns every device FSM to idle.
  gpio_sda_ = false;
  bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
  Busy(timing_.gpio_write_ns + half_ns);
  SyncRtl();
  gpio_sda_ = true;
  bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
  Busy(timing_.gpio_write_ns + half_ns);
  SyncRtl();
}

void BitBangDriver::SoftReset() {
  ++recovery_counters_.soft_resets;
  // All-software driver: coroutine reinit is the whole reset. Release both
  // GPIO lines so the bus floats back to idle.
  if (shadow_) {
    shadow_->Reset();
  }
  if (watcher_) {
    watcher_->Reset();
  }
  sw_.Reset();
  sw_.Run();
  last_sw_steps_ = sw_.TotalSteps();
  gpio_scl_ = true;
  gpio_sda_ = true;
  bus_.SetDriver(gpio_driver_id_, gpio_scl_, gpio_sda_);
  wedged_ = false;
  last_status_ = i2c::kCeResOk;
  Busy(2 * timing_.gpio_write_ns);
  SyncRtl();
}

bool BitBangDriver::Probe() {
  ++recovery_counters_.reprobes;
  // A single-byte read from offset 0, bypassing the retry ladder.
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActRead;
  request[1] = eeprom_address_;
  request[2] = 0;
  request[3] = 1;
  std::vector<int32_t> reply;
  if (!RunOperation(request, &reply)) {
    return false;
  }
  return reply[0] == i2c::kCeResOk && reply[1] == 1;
}

bool BitBangDriver::Read(int offset, int length, std::vector<uint8_t>* out) {
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActRead;
  request[1] = eeprom_address_;
  request[2] = offset;
  request[3] = length;
  std::vector<int32_t> reply;
  if (!Transact(request, &reply) || reply[1] != length) {
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

bool BitBangDriver::Write(int offset, const std::vector<uint8_t>& data) {
  std::vector<int32_t> request(20, 0);
  request[0] = i2c::kCeActWrite;
  request[1] = eeprom_address_;
  request[2] = offset;
  request[3] = static_cast<int32_t>(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    request[4 + i] = data[i];
  }
  std::vector<int32_t> reply;
  return Transact(request, &reply);
}

DriverMetrics BitBangDriver::MeasureReads(int ops, int length) {
  DriverMetrics metrics;
  std::vector<uint8_t> data;
  if (!Read(0, length, &data)) {
    metrics.functional = false;
    metrics.note = "warm-up read failed";
    return metrics;
  }
  bus_.ClearSamples();
  double start_busy = cpu_busy_ns_;
  double start_time = now_ns();
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
  metrics.frequency = sim::AnalyzeSclFrequency(bus_.samples());
  metrics.recovery = recovery_counters_;
  metrics.faults_injected = fault_plan_.faults_injected();
  metrics.monitor = MonitorCounters();
  return metrics;
}

void BitBangDriver::EnableMonitors(monitor::BusWatcherOptions options) {
  if (shadow_) {
    return;
  }
  const esi::SystemInfo& info = compilation_->system();
  monitor_spec_ = monitor::MonitorSpec::FromSystem(info, info.FindChannel("CWorld", "CEepDriver"),
                                                   info.FindChannel("CEepDriver", "CWorld"));
  shadow_ = std::make_unique<monitor::ShadowChecker>(&monitor_spec_);
  watcher_ = std::make_unique<monitor::BusWatcher>(&bus_, /*regfile=*/nullptr, options);
  rtl_.AddComponent(watcher_.get());
}

monitor::TripCounters BitBangDriver::MonitorCounters() const {
  monitor::TripCounters merged;
  if (shadow_) {
    merged.Merge(shadow_->counters());
  }
  if (watcher_) {
    merged.Merge(watcher_->counters());
  }
  return merged;
}

uint64_t BitBangDriver::ConsumeMonitorTrips() {
  const uint64_t total = MonitorCounters().total;
  const uint64_t fresh = total - consumed_monitor_trips_;
  consumed_monitor_trips_ = total;
  return fresh;
}

// ---------------------------------------------------------------------------
// XilinxIpDriver
// ---------------------------------------------------------------------------

XilinxIpDriver::XilinxIpDriver(const TimingModel& timing, const sim::EepromConfig& eeprom,
                               bool capture_waveform, const sim::FaultPlan& fault_plan)
    : timing_(timing), rtl_(timing.clock_ns), eeprom_address_(eeprom.address),
      fault_plan_(fault_plan) {
  engine_ = std::make_unique<sim::XilinxIpEngine>(&bus_, timing.half_cycle_ticks,
                                                  timing.xilinx_interbyte_gap_ticks);
  sim::EepromConfig eeprom_config = eeprom;
  eeprom_config.clock_ns = timing.clock_ns;
  eeprom_ = std::make_unique<sim::Eeprom24aa512>(&bus_, eeprom_config);
  eeprom_->SetFaultPlan(&fault_plan_);
  rtl_.AddComponent(engine_.get());
  rtl_.AddComponent(eeprom_.get());
  if (capture_waveform) {
    bus_.EnableCapture(true);
    rtl_.SetPostTickHook([this](double now) { bus_.Capture(now); });
  }
  last_status_ = i2c::kCeResOk;
}

XilinxIpDriver::~XilinxIpDriver() = default;

bool XilinxIpDriver::RunEngine(int payload_bytes) {
  ++recovery_counters_.attempts;
  constexpr double kTimeoutNs = 2e9;
  double deadline = rtl_.time_ns() + kTimeoutNs;
  while (!engine_->done() && rtl_.time_ns() < deadline) {
    rtl_.Tick();
  }
  if (!engine_->done()) {
    ++recovery_counters_.timeouts;
    wedged_ = true;
    last_status_ = i2c::kCeResFail;
    if (shadow_) {
      shadow_->OnWaitTimeout();
    }
    return false;
  }
  if (engine_->ack_failure()) {
    ++recovery_counters_.nacks;
    last_status_ = i2c::kCeResNack;
    return false;
  }
  // Boundary fault: the completion interrupt is lost; the driver's blocking
  // wait gives up even though the engine finished (timeout modeled as an
  // immediate failure so the simulation need not tick through it).
  if (fault_plan_.Consult(sim::FaultKind::kDroppedInterrupt) > 0) {
    ++recovery_counters_.timeouts;
    wedged_ = true;
    last_status_ = i2c::kCeResFail;
    if (shadow_) {
      shadow_->OnWaitTimeout();
    }
    return false;
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
  last_status_ = i2c::kCeResOk;
  return true;
}

bool XilinxIpDriver::Read(int offset, int length, std::vector<uint8_t>* out) {
  if (wedged_) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  // Driver setup: program the transaction into the TX FIFO.
  cpu_busy_ns_ += timing_.xilinx_setup_writes * timing_.mmio_write_ns;
  engine_->StartRead(eeprom_address_, offset, length);
  if (!RunEngine(length)) {
    return false;
  }
  if (out != nullptr) {
    *out = engine_->read_data();
  }
  return true;
}

bool XilinxIpDriver::Write(int offset, const std::vector<uint8_t>& data) {
  if (wedged_) {
    last_status_ = i2c::kCeResFail;
    return false;
  }
  cpu_busy_ns_ += timing_.xilinx_setup_writes * timing_.mmio_write_ns;
  engine_->StartWrite(eeprom_address_, offset, data);
  return RunEngine(static_cast<int>(data.size()));
}

void XilinxIpDriver::SoftReset() {
  ++recovery_counters_.soft_resets;
  // The AXI IIC SOFTR register: abandon the queued transaction, release the
  // bus, clear the wedged flag. One MMIO write.
  if (shadow_) {
    shadow_->Reset();
  }
  if (watcher_) {
    watcher_->Reset();
  }
  engine_->SoftReset();
  cpu_busy_ns_ += timing_.mmio_write_ns;
  wedged_ = false;
  last_status_ = i2c::kCeResOk;
}

bool XilinxIpDriver::Probe() {
  ++recovery_counters_.reprobes;
  std::vector<uint8_t> data;
  // Probing costs an attempt through the normal read path (single byte).
  bool ok = Read(0, 1, &data);
  return ok && data.size() == 1;
}

DriverMetrics XilinxIpDriver::MeasureReads(int ops, int length) {
  DriverMetrics metrics;
  std::vector<uint8_t> data;
  if (!Read(0, length, &data)) {
    metrics.functional = false;
    metrics.note = "warm-up read failed";
    return metrics;
  }
  bus_.ClearSamples();
  double start_busy = cpu_busy_ns_;
  double start_time = rtl_.time_ns();
  uint64_t start_irqs = irq_count_;
  const uint64_t start_ticked = rtl_.cycles_ticked();
  for (int i = 0; i < ops; ++i) {
    if (!Read(0, length, &data)) {
      metrics.functional = false;
      metrics.note = "read failed";
      return metrics;
    }
  }
  metrics.elapsed_ns = rtl_.time_ns() - start_time;
  metrics.rtl_cycles_ticked = rtl_.cycles_ticked() - start_ticked;
  metrics.cpu_usage = (cpu_busy_ns_ - start_busy) / metrics.elapsed_ns;
  metrics.irq_count = irq_count_ - start_irqs;
  metrics.frequency = sim::AnalyzeSclFrequency(bus_.samples());
  metrics.recovery = recovery_counters_;
  metrics.faults_injected = fault_plan_.faults_injected();
  metrics.monitor = MonitorCounters();
  return metrics;
}

void XilinxIpDriver::EnableMonitors(monitor::BusWatcherOptions options) {
  if (shadow_) {
    return;
  }
  // No generated boundary spec: the shadow checker contributes only the
  // wait-deadline and spurious-interrupt checks.
  shadow_ = std::make_unique<monitor::ShadowChecker>(nullptr);
  watcher_ = std::make_unique<monitor::BusWatcher>(&bus_, /*regfile=*/nullptr, options);
  rtl_.AddComponent(watcher_.get());
}

monitor::TripCounters XilinxIpDriver::MonitorCounters() const {
  monitor::TripCounters merged;
  if (shadow_) {
    merged.Merge(shadow_->counters());
  }
  if (watcher_) {
    merged.Merge(watcher_->counters());
  }
  return merged;
}

uint64_t XilinxIpDriver::ConsumeMonitorTrips() {
  const uint64_t total = MonitorCounters().total;
  const uint64_t fresh = total - consumed_monitor_trips_;
  consumed_monitor_trips_ = total;
  return fresh;
}

}  // namespace efeu::driver
