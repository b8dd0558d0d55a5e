// The open-drain two-wire I2C bus: both SCL and SDA have pull-up resistors
// and devices may only drive the lines low, so the observed level is the AND
// of every driver's contribution (paper section 2.3). Includes waveform
// capture standing in for the paper's oscilloscope.

#ifndef SRC_SIM_I2C_BUS_H_
#define SRC_SIM_I2C_BUS_H_

#include <vector>

namespace efeu::sim {

class I2cBus {
 public:
  // Registers a new driver (initially releasing both lines); returns its id.
  int AddDriver();

  void SetDriver(int id, bool scl, bool sda);

  // Combined (wired-AND) levels, read from the counts of drivers pulling
  // each line low.
  bool scl() const { return !scl_forced_low_ && scl_low_ == 0; }
  bool sda() const { return !sda_forced_low_ && sda_low_ == 0; }

  // Combined levels with one driver's contribution masked out (still honoring
  // a forced-low overlay). A pass-gate repeater (sim::I2cMux) forwards the
  // level of everyone-but-itself to the other bus segment, so its own
  // forwarded drive never feeds back as a latched low.
  bool SclExcept(int id) const {
    return !scl_forced_low_ && scl_low_ == (drivers_[id].scl ? 0 : 1);
  }
  bool SdaExcept(int id) const {
    return !sda_forced_low_ && sda_low_ == (drivers_[id].sda ? 0 : 1);
  }

  // Fault-injection overlay: an externally forced-low line reads low for
  // every device, like a short to ground (the stuck-bus faults of
  // sim::FaultPlan). Normal drivers are unaffected otherwise.
  void ForceSclLow(bool forced) { scl_forced_low_ = forced; }
  void ForceSdaLow(bool forced) { sda_forced_low_ = forced; }

  // -- Waveform capture ------------------------------------------------------
  struct Sample {
    double t_ns = 0;
    bool scl = false;
    bool sda = false;
  };

  void EnableCapture(bool enabled) { capture_ = enabled; }
  // Records a sample if a line changed since the last one (call once per
  // simulation step).
  void Capture(double t_ns);
  const std::vector<Sample>& samples() const { return samples_; }
  void ClearSamples() { samples_.clear(); }

 private:
  struct Drive {
    bool scl = true;
    bool sda = true;
  };
  // The counts agree with a scan of drivers_ (asserted in Debug builds).
  bool CountsMatchDrivers() const;

  std::vector<Drive> drivers_;
  // How many drivers pull SCL and SDA low; SetDriver keeps them current.
  int scl_low_ = 0;
  int sda_low_ = 0;
  bool scl_forced_low_ = false;
  bool sda_forced_low_ = false;
  bool capture_ = false;
  std::vector<Sample> samples_;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_I2C_BUS_H_
