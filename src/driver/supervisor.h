// Cross-boundary supervision (the staged degradation ladder): a health FSM
// wrapped uniformly around the hybrid, bit-bang and Xilinx-baseline drivers.
// The wrapped driver's own RecoveryPolicy covers the first two rungs (retry/
// backoff and 9-pulse bus recovery); the supervisor escalates through the
// rest when an operation still fails:
//
//   healthy --op fails--> recovering: hardware soft-reset + coroutine reinit,
//   then (from the second ladder cycle) a full device re-probe before the
//   operation is retried. A page write that keeps failing falls back to
//   degraded mode (single-byte writes). Only when every rung is exhausted
//   does the supervisor declare the pair wedged; wedged is terminal.
//
// Duck-typed over the driver: needs Read/Write/SoftReset/Probe plus the
// recovery_counters()/last_status()/wedged() surface all three drivers
// inherit from DriverCore (src/driver/core.h).

#ifndef SRC_DRIVER_SUPERVISOR_H_
#define SRC_DRIVER_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "src/driver/recovery.h"

namespace efeu::driver {

enum class HealthState {
  kHealthy,     // operations complete without supervisor intervention
  kDegraded,    // functional, but page writes run as single-byte writes
  kRecovering,  // mid-ladder: a reset/re-probe cycle is in flight
  kWedged,      // every rung exhausted; all further operations fail fast
};

inline const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kRecovering:
      return "recovering";
    case HealthState::kWedged:
      return "wedged";
  }
  return "?";
}

struct SupervisorOptions {
  // Soft-reset (+ re-probe) cycles per operation before giving up.
  int max_ladder_cycles = 3;
  // Consecutive page writes that needed the reset ladder (failed their first
  // try) before proactively entering degraded mode; a page write the whole
  // ladder cannot complete falls back to single bytes immediately.
  int page_fail_threshold = 2;
  // Consecutive supervised operations that complete without the ladder (and
  // without a monitor trip) while degraded before page mode is trusted
  // again. 0 keeps degraded mode sticky for the supervisor's lifetime.
  int degraded_recovery_threshold = 8;
  // Monitor trips without an intervening clean operation before the
  // supervisor forces a soft reset on the wrapped driver (rung 3 of the
  // ladder, entered from the runtime monitors instead of a failed op).
  int trip_reset_threshold = 3;
};

template <typename Driver>
class Supervisor {
 public:
  explicit Supervisor(Driver* driver, SupervisorOptions options = {})
      : driver_(driver), options_(options) {}

  HealthState health() const { return health_; }
  Driver& driver() { return *driver_; }

  // The driver's counters with the supervisor-level degraded-mode entries
  // folded in (the driver itself never touches degraded_entries).
  RecoveryCounters counters() const {
    RecoveryCounters merged = driver_->recovery_counters();
    merged.degraded_entries += degraded_entries_;
    return merged;
  }

  // Monitor trips observed since construction, and trips since the last
  // clean operation (the escalation input).
  uint64_t monitor_trips() const { return monitor_trips_; }

  // Runtime-monitor input to the ladder: a bus watcher or shadow checker
  // flagged a spec violation outside any supervised operation. One trip
  // demotes the pair to recovering (the next operation re-runs the ladder
  // from a clean slate); trip_reset_threshold trips without an intervening
  // clean operation force the soft reset immediately.
  void NoteMonitorTrip() {
    if (health_ == HealthState::kWedged) {
      return;
    }
    ++monitor_trips_;
    clean_streak_ = 0;
    health_ = HealthState::kRecovering;
    if (options_.trip_reset_threshold > 0 &&
        ++trips_since_clean_op_ >= options_.trip_reset_threshold) {
      driver_->SoftReset();
      trips_since_clean_op_ = 0;
    }
  }

  bool Read(int offset, int length, std::vector<uint8_t>* out) {
    if (health_ == HealthState::kWedged) {
      return false;
    }
    PollMonitors();
    bool first_try_failed = false;
    if (RunLadder([&] { return driver_->Read(offset, length, out); }, &first_try_failed)) {
      NoteOperationSucceeded(first_try_failed);
      PollMonitors();
      return true;
    }
    PollMonitors();
    health_ = HealthState::kWedged;
    return false;
  }

  bool Write(int offset, const std::vector<uint8_t>& data) {
    if (health_ == HealthState::kWedged) {
      return false;
    }
    PollMonitors();
    const bool page = data.size() > 1;
    if (page && degraded_) {
      bool any_ladder = false;
      if (!WriteSingleBytes(offset, data, &any_ladder)) {
        return false;
      }
      NoteOperationSucceeded(any_ladder);
      PollMonitors();
      return true;
    }
    bool first_try_failed = false;
    if (RunLadder([&] { return driver_->Write(offset, data); }, &first_try_failed)) {
      if (page) {
        if (first_try_failed) {
          // The write completed, but only through a reset cycle. A page
          // write that keeps needing the ladder degrades proactively
          // instead of betting the next one on it too.
          if (++consecutive_page_failures_ >= options_.page_fail_threshold) {
            EnterDegraded();
          }
        } else {
          consecutive_page_failures_ = 0;
        }
        if (degraded_) {
          health_ = HealthState::kDegraded;
        }
      }
      NoteOperationSucceeded(first_try_failed);
      PollMonitors();
      return true;
    }
    if (page) {
      // Last rung before wedged: the device may still take one byte at a
      // time. The failed ladder left the stack down; reset it first.
      EnterDegraded();
      driver_->SoftReset();
      bool any_ladder = false;
      if (WriteSingleBytes(offset, data, &any_ladder)) {
        NoteOperationSucceeded(/*needed_ladder=*/true);
        PollMonitors();
        return true;
      }
      return false;
    }
    health_ = HealthState::kWedged;
    return false;
  }

  // Addressed operations for composite devices (the MFD register file),
  // run through the same ladder as Read/Write. WriteTo deliberately skips
  // the degraded single-byte fallback: a register write is an atomic 16-bit
  // pair, and splitting it would tear the register. Only instantiated for
  // drivers exposing ReadFrom/WriteTo (the supervisor stays duck-typed).
  bool ReadFrom(int bus_address, int offset, int length, std::vector<uint8_t>* out) {
    if (health_ == HealthState::kWedged) {
      return false;
    }
    PollMonitors();
    bool first_try_failed = false;
    if (RunLadder([&] { return driver_->ReadFrom(bus_address, offset, length, out); },
                  &first_try_failed)) {
      NoteOperationSucceeded(first_try_failed);
      PollMonitors();
      return true;
    }
    PollMonitors();
    health_ = HealthState::kWedged;
    return false;
  }

  bool WriteTo(int bus_address, int offset, const std::vector<uint8_t>& data) {
    if (health_ == HealthState::kWedged) {
      return false;
    }
    PollMonitors();
    bool first_try_failed = false;
    if (RunLadder([&] { return driver_->WriteTo(bus_address, offset, data); },
                  &first_try_failed)) {
      NoteOperationSucceeded(first_try_failed);
      PollMonitors();
      return true;
    }
    PollMonitors();
    health_ = HealthState::kWedged;
    return false;
  }

 private:
  // Drains trips the wrapped driver's runtime monitors recorded since the
  // last poll and feeds them into the ladder. Compiled out for drivers
  // without monitors (e.g. test fakes), keeping the supervisor duck-typed.
  void PollMonitors() {
    if constexpr (requires { driver_->ConsumeMonitorTrips(); }) {
      for (uint64_t trips = driver_->ConsumeMonitorTrips(); trips > 0; --trips) {
        NoteMonitorTrip();
      }
    }
  }

  template <typename Op>
  bool RunLadder(Op op, bool* first_try_failed = nullptr) {
    // Rungs 1-2 (retry/backoff, bus recovery) run inside the driver's own
    // RecoveryPolicy on this first attempt.
    if (op()) {
      Recovered();
      return true;
    }
    if (first_try_failed != nullptr) {
      *first_try_failed = true;
    }
    for (int cycle = 0; cycle < options_.max_ladder_cycles; ++cycle) {
      health_ = HealthState::kRecovering;
      // Rung 3: hardware soft reset + coroutine reinit.
      driver_->SoftReset();
      // Arbitration rung (multi-master topologies): the failure may mean a
      // competing master owns the bus, in which case retrying against a
      // seized bus just burns ladder cycles — wait for both lines to idle
      // before the retry. This must run AFTER the reset: a wedged stack's
      // own FSM can be stuck driving SDA low, and only the reset releases
      // our side of the wires so the wait observes the competing master
      // alone. Compiled out for drivers without the surface; a timed-out
      // wait still falls through to the retry below.
      if constexpr (requires { driver_->WaitBusFree(); }) {
        driver_->WaitBusFree();
      }
      if (cycle > 0) {
        // Rung 4: full device re-probe before trusting the stack again.
        if (!driver_->Probe()) {
          // A failed probe can strand the stack mid-protocol; clean up so
          // the next cycle starts from the initial state.
          driver_->SoftReset();
          continue;
        }
      }
      if (op()) {
        Recovered();
        return true;
      }
    }
    return false;
  }

  bool WriteSingleBytes(int offset, const std::vector<uint8_t>& data, bool* any_ladder) {
    for (size_t i = 0; i < data.size(); ++i) {
      std::vector<uint8_t> one = {data[i]};
      bool first_try_failed = false;
      if (!RunLadder([&] { return driver_->Write(offset + static_cast<int>(i), one); },
                     &first_try_failed)) {
        health_ = HealthState::kWedged;
        return false;
      }
      if (first_try_failed) {
        *any_ladder = true;
      }
    }
    return true;
  }

  void Recovered() {
    health_ = degraded_ ? HealthState::kDegraded : HealthState::kHealthy;
  }

  // A supervised operation completed. Clean completions (no ladder) while
  // degraded accumulate toward re-promotion; any ladder use restarts the
  // streak. Every success clears the monitor-trip escalation counter.
  void NoteOperationSucceeded(bool needed_ladder) {
    trips_since_clean_op_ = 0;
    if (needed_ladder) {
      clean_streak_ = 0;
      return;
    }
    if (degraded_ && options_.degraded_recovery_threshold > 0 &&
        ++clean_streak_ >= options_.degraded_recovery_threshold) {
      ExitDegraded();
    }
  }

  // Counts DISTINCT degradation episodes: the edge guard means a ladder that
  // re-enters degraded via recovering (without an intervening promotion to
  // healthy) cannot bump the counter twice, and only ExitDegraded re-arms
  // it. degraded_entries is therefore "how many times the pair fell back to
  // single-byte mode", not "how many rungs ended in degraded".
  void EnterDegraded() {
    if (!degraded_) {
      degraded_ = true;
      ++degraded_entries_;
    }
    clean_streak_ = 0;
  }

  void ExitDegraded() {
    degraded_ = false;
    clean_streak_ = 0;
    consecutive_page_failures_ = 0;
    health_ = HealthState::kHealthy;
  }

  Driver* driver_;
  SupervisorOptions options_;
  HealthState health_ = HealthState::kHealthy;
  bool degraded_ = false;
  int consecutive_page_failures_ = 0;
  int clean_streak_ = 0;
  int trips_since_clean_op_ = 0;
  uint64_t degraded_entries_ = 0;
  uint64_t monitor_trips_ = 0;
};

}  // namespace efeu::driver

#endif  // SRC_DRIVER_SUPERVISOR_H_
