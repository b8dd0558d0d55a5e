#include "src/monitor/bus_watcher.h"

#include <algorithm>

namespace efeu::monitor {

BusWatcher::BusWatcher(const sim::I2cBus* bus, const rtl::MmioRegfile* regfile,
                       BusWatcherOptions options)
    : bus_(bus), regfile_(regfile), options_(options) {}

void BusWatcher::Trip(TripKind kind, const char* what) {
  tripped_ = true;
  ++counters_.total;
  ++counters_.by_kind[static_cast<int>(kind)];
  if (counters_.total == 1) {
    counters_.first_trip_at = ticks_;
  }
  counters_.last_trip = what;
}

void BusWatcher::Evaluate() {
  ++ticks_;

  // Wire watch: a line continuously low past the limit. One trip per
  // continuous episode; the episode latch re-arms when the line releases.
  auto watch_line = [this](bool level, int* run, bool* episode, const char* what) {
    if (level) {
      *run = 0;
      *episode = false;
      return;
    }
    if (++*run > options_.stuck_low_limit && !*episode) {
      *episode = true;
      Trip(TripKind::kStuckBus, what);
    }
  };
  watch_line(bus_->scl(), &scl_low_run_, &scl_episode_, "SCL held low past the stretch limit");
  watch_line(bus_->sda(), &sda_low_run_, &sda_episode_, "SDA held low past the stretch limit");

  if (regfile_ == nullptr) {
    return;
  }
  // Handshake watch: a published message nobody consumes.
  auto watch_pending = [this](bool pending, int* run, bool* episode, const char* what) {
    if (!pending) {
      *run = 0;
      *episode = false;
      return;
    }
    if (++*run > options_.handshake_limit && !*episode) {
      *episode = true;
      Trip(TripKind::kHandshakeStall, what);
    }
  };
  watch_pending(regfile_->DownPending(), &down_pending_run_, &down_episode_,
                "down message pending past the handshake limit");
  watch_pending(regfile_->UpFull(), &up_full_run_, &up_episode_,
                "up message unconsumed past the handshake limit");
}

namespace {

// Edges one watched condition stays quiet: a released condition whose run
// and episode are already clear stays so; a holding one counts its run up
// to, not including, the edge that trips (after its episode tripped, it
// only counts).
uint64_t QuietEdges(bool holds, int run, bool episode, int limit) {
  if (!holds) {
    return run == 0 && !episode ? rtl::kIdleForever : 0;
  }
  if (episode) {
    return rtl::kIdleForever;
  }
  return run < limit ? static_cast<uint64_t>(limit - run) : 0;
}

}  // namespace

uint64_t BusWatcher::IdleCycles() const {
  uint64_t idle =
      std::min(QuietEdges(!bus_->scl(), scl_low_run_, scl_episode_, options_.stuck_low_limit),
               QuietEdges(!bus_->sda(), sda_low_run_, sda_episode_, options_.stuck_low_limit));
  if (regfile_ != nullptr) {
    idle = std::min({idle,
                     QuietEdges(regfile_->DownPending(), down_pending_run_, down_episode_,
                                options_.handshake_limit),
                     QuietEdges(regfile_->UpFull(), up_full_run_, up_episode_,
                                options_.handshake_limit)});
  }
  return idle;
}

void BusWatcher::AdvanceIdle(uint64_t edges) {
  ticks_ += edges;
  const int step = static_cast<int>(edges);
  if (!bus_->scl()) {
    scl_low_run_ += step;
  }
  if (!bus_->sda()) {
    sda_low_run_ += step;
  }
  if (regfile_ == nullptr) {
    return;
  }
  if (regfile_->DownPending()) {
    down_pending_run_ += step;
  }
  if (regfile_->UpFull()) {
    up_full_run_ += step;
  }
}

void BusWatcher::Reset() {
  tripped_ = false;
  scl_low_run_ = 0;
  sda_low_run_ = 0;
  down_pending_run_ = 0;
  up_full_run_ = 0;
  scl_episode_ = false;
  sda_episode_ = false;
  down_episode_ = false;
  up_episode_ = false;
}

}  // namespace efeu::monitor
