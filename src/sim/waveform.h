// Oscilloscope-style waveform analysis (paper section 5.2): find SCL
// rising edges, compute the instantaneous bus frequency between
// consecutive rising edges, and aggregate mean/standard deviation per
// operation — the same methodology the paper applies to captured traces.

#ifndef SRC_SIM_WAVEFORM_H_
#define SRC_SIM_WAVEFORM_H_

#include <string>
#include <vector>

#include "src/sim/i2c_bus.h"

namespace efeu::sim {

// Timestamps (ns) of SCL rising edges in the capture.
std::vector<double> SclRisingEdges(const std::vector<I2cBus::Sample>& samples);

struct FrequencyStats {
  double mean_khz = 0;
  double stddev_khz = 0;
  int edge_count = 0;
};

// Instantaneous frequency = inverse of the time between consecutive rising
// edges (paper section 5.2).
FrequencyStats AnalyzeSclFrequency(const std::vector<I2cBus::Sample>& samples);

// Renders an ASCII waveform of the first `window_ns` of the capture, one row
// per signal — the stand-in for the paper's Figure 11 scope screenshots.
std::string RenderAsciiWaveform(const std::vector<I2cBus::Sample>& samples, double window_ns,
                                int columns = 100);

}  // namespace efeu::sim

#endif  // SRC_SIM_WAVEFORM_H_
