#include "src/driver/core.h"

#include <cassert>
#include <cstdio>

#include "src/support/check.h"

namespace efeu::driver {

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

DriverCore::DriverCore(const TimingModel& timing, const sim::FaultPlan& fault_plan,
                       const RecoveryPolicy& recovery, bool capture_waveform)
    : timing_(timing), recovery_(recovery), rtl_(timing.clock_ns), fault_plan_(fault_plan) {
  if (capture_waveform) {
    bus_.EnableCapture(true);
    rtl_.SetPostTickHook([this](double now) { bus_.Capture(now); });
  }
}

DriverCore::~DriverCore() = default;

void DriverCore::AddEeprom(sim::I2cBus* device_bus, const sim::EepromConfig& config) {
  sim::EepromConfig clocked = config;
  clocked.clock_ns = timing_.clock_ns;
  eeprom_ = std::make_unique<sim::Eeprom24aa512>(device_bus, clocked);
  eeprom_->SetFaultPlan(&fault_plan_);
  rtl_.AddComponent(eeprom_.get());
}

int DriverCore::WireSoftwareStack(int layers) {
  const esi::SystemInfo& info = compilation_->system();
  std::vector<int> procs;
  for (int i = 0; i < layers; ++i) {
    const ir::Module* module = compilation_->FindModule(kControllerLayers[i]);
    assert(module != nullptr);
    procs.push_back(sw_.AddProcess(module, kControllerLayers[i]));
  }
  for (size_t i = 0; i + 1 < procs.size(); ++i) {
    const esi::ChannelInfo* d = info.FindChannel(kControllerLayers[i], kControllerLayers[i + 1]);
    const esi::ChannelInfo* u = info.FindChannel(kControllerLayers[i + 1], kControllerLayers[i]);
    sw_.Connect(sw_.FindPort(procs[i], d, true), sw_.FindPort(procs[i + 1], d, false));
    sw_.Connect(sw_.FindPort(procs[i + 1], u, true), sw_.FindPort(procs[i], u, false));
  }
  top_in_ = sw_.FindPort(procs.front(), info.FindChannel("CWorld", "CEepDriver"),
                         /*is_send=*/false);
  top_out_ = sw_.FindPort(procs.front(), info.FindChannel("CEepDriver", "CWorld"),
                          /*is_send=*/true);
  return procs.back();
}

void DriverCore::AttachMonitors(const monitor::MonitorSpec* spec, const rtl::MmioRegfile* regfile,
                                const monitor::BusWatcherOptions& options) {
  shadow_ = std::make_unique<monitor::ShadowChecker>(spec);
  watcher_ = std::make_unique<monitor::BusWatcher>(&bus_, regfile, options);
  rtl_.AddComponent(watcher_.get());
}

void DriverCore::ResetBookkeeping() {
  ++recovery_counters_.soft_resets;
  if (shadow_) {
    shadow_->Reset();
  }
  if (watcher_) {
    watcher_->Reset();
  }
  wedged_ = false;
  last_status_ = i2c::kCeResOk;
}

DriverCore::Request DriverCore::ReadRequest(int bus_address, int offset, int length) {
  EFEU_CHECK(length >= 1 && length <= kMaxPayload, "read length outside 1..14 bytes");
  return Request{i2c::kCeActRead, bus_address, offset, length};
}

DriverCore::Request DriverCore::WriteRequest(int bus_address, int offset,
                                             std::span<const uint8_t> data) {
  EFEU_CHECK(!data.empty() && data.size() <= kMaxPayload, "write payload outside 1..14 bytes");
  Request request{i2c::kCeActWrite, bus_address, offset, static_cast<int32_t>(data.size())};
  std::copy(data.begin(), data.end(), request.begin() + 4);
  return request;
}

bool DriverCore::DecodeRead(std::span<const int32_t> reply, int length,
                            std::vector<uint8_t>* out) {
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

monitor::TripCounters DriverCore::MonitorCounters() const {
  monitor::TripCounters merged;
  if (shadow_) {
    merged.Merge(shadow_->counters());
  }
  if (watcher_) {
    merged.Merge(watcher_->counters());
  }
  return merged;
}

uint64_t DriverCore::ConsumeMonitorTrips() {
  const uint64_t total = MonitorCounters().total;
  const uint64_t fresh = total - consumed_monitor_trips_;
  consumed_monitor_trips_ = total;
  return fresh;
}

}  // namespace efeu::driver
