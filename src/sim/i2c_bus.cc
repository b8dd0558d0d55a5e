#include "src/sim/i2c_bus.h"

#include <cassert>

namespace efeu::sim {

int I2cBus::AddDriver() {
  drivers_.push_back(Drive{});
  return static_cast<int>(drivers_.size()) - 1;
}

void I2cBus::SetDriver(int id, bool scl, bool sda) {
  Drive& drive = drivers_[id];
  scl_low_ += static_cast<int>(drive.scl) - static_cast<int>(scl);
  sda_low_ += static_cast<int>(drive.sda) - static_cast<int>(sda);
  drive.scl = scl;
  drive.sda = sda;
  assert(CountsMatchDrivers());
}

bool I2cBus::CountsMatchDrivers() const {
  int scl_low = 0;
  int sda_low = 0;
  for (const Drive& drive : drivers_) {
    scl_low += drive.scl ? 0 : 1;
    sda_low += drive.sda ? 0 : 1;
  }
  return scl_low == scl_low_ && sda_low == sda_low_;
}

void I2cBus::Capture(double t_ns) {
  if (!capture_) {
    return;
  }
  bool s = scl();
  bool d = sda();
  if (!samples_.empty() && samples_.back().scl == s && samples_.back().sda == d) {
    return;
  }
  samples_.push_back(Sample{t_ns, s, d});
}

}  // namespace efeu::sim
