// In-memory span recorder for the traced benchmark run, plus TimedDriver,
// the timing decorator that puts a span around every call the supervision
// ladder (driver::Supervisor) and the MFD client make into a driver.
//
// Spans are recorded from the benchmark side around calls into the library's
// public functions; the library itself is not instrumented. One Tracer per
// worker thread, no locking. A span's parent is the innermost span open when
// it began; its self time is its duration minus the time its children cover.
// Spans of one operation share the operation id of their root span.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/driver/recovery.h"
#include "src/i2c/codes.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int32_t parent;  // index into spans(), -1 for a root
    uint32_t op;     // id of the root span's operation
    int64_t start_ns;
    int64_t end_ns;
  };

  int Open(const char* name) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    const uint32_t op = parent < 0 ? next_op_++ : spans_[static_cast<size_t>(parent)].op;
    spans_.push_back(Span{name, parent, op, Clock(), 0});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_ns = Clock();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Adds every span's self time, in seconds, to (*self_s)[name + "_s"].
  void AddSelfSeconds(std::map<std::string, double>* self_s) const;

 private:
  static int64_t Clock() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t next_op_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer), index_(tracer->Open(name)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Forwards the duck-typed driver surface Supervisor<D> and MfdClient use,
// recording one span per call. The mux select the driver would run first
// thing inside an addressed operation is issued here as its own child span;
// once selected it is cached, so the driver's own call is then a no-op and
// the forwarded work is exactly the work the bare driver would do. A failed
// select returns before forwarding, as the driver itself would.
template <typename Driver>
class TimedDriver {
 public:
  TimedDriver(Driver* driver, Tracer* tracer) : driver_(driver), tracer_(tracer) {}

  bool Read(int offset, int length, std::vector<uint8_t>* out) {
    ScopedSpan span(tracer_, "driver.read");
    return SelectMux() && driver_->Read(offset, length, out);
  }
  bool Write(int offset, const std::vector<uint8_t>& data) {
    ScopedSpan span(tracer_, "driver.write");
    return SelectMux() && driver_->Write(offset, data);
  }
  bool ReadFrom(int bus_address, int offset, int length, std::vector<uint8_t>* out) {
    ScopedSpan span(tracer_, "driver.read");
    return SelectMux() && driver_->ReadFrom(bus_address, offset, length, out);
  }
  bool WriteTo(int bus_address, int offset, const std::vector<uint8_t>& data) {
    ScopedSpan span(tracer_, "driver.write");
    return SelectMux() && driver_->WriteTo(bus_address, offset, data);
  }
  void SoftReset() {
    ScopedSpan span(tracer_, "driver.soft_reset");
    mux_failed_ = false;
    driver_->SoftReset();
  }
  bool Probe() {
    ScopedSpan span(tracer_, "driver.probe");
    mux_failed_ = false;
    return driver_->Probe();
  }
  bool WaitBusFree() {
    ScopedSpan span(tracer_, "driver.wait_bus_free");
    return driver_->WaitBusFree();
  }
  uint64_t ConsumeMonitorTrips() { return driver_->ConsumeMonitorTrips(); }

  const efeu::driver::RecoveryCounters& recovery_counters() const {
    return driver_->recovery_counters();
  }
  // A select that failed here never reached the driver, which would have
  // recorded CE_RES_FAIL for it.
  int32_t last_status() const {
    return mux_failed_ ? efeu::i2c::kCeResFail : driver_->last_status();
  }
  bool wedged() const { return driver_->wedged(); }

 private:
  bool SelectMux() {
    mux_failed_ = false;
    if constexpr (requires { driver_->EnsureMuxSelected(); }) {
      if (driver_->mux() == nullptr) {
        return true;
      }
      ScopedSpan span(tracer_, "driver.mux_select");
      mux_failed_ = !driver_->EnsureMuxSelected();
    }
    return !mux_failed_;
  }

  Driver* driver_;
  Tracer* tracer_;
  bool mux_failed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
