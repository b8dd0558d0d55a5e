#include "src/sim/waveform.h"

#include <cmath>

namespace efeu::sim {

std::vector<double> SclRisingEdges(const std::vector<I2cBus::Sample>& samples) {
  std::vector<double> edges;
  for (size_t i = 1; i < samples.size(); ++i) {
    if (!samples[i - 1].scl && samples[i].scl) {
      edges.push_back(samples[i].t_ns);
    }
  }
  return edges;
}

FrequencyStats AnalyzeSclFrequency(const std::vector<I2cBus::Sample>& samples) {
  FrequencyStats stats;
  std::vector<double> edges = SclRisingEdges(samples);
  stats.edge_count = static_cast<int>(edges.size());
  if (edges.size() < 2) {
    return stats;
  }
  std::vector<double> freqs_khz;
  for (size_t i = 1; i < edges.size(); ++i) {
    double period_ns = edges[i] - edges[i - 1];
    if (period_ns > 0) {
      freqs_khz.push_back(1e6 / period_ns);
    }
  }
  if (freqs_khz.empty()) {
    // Every period was zero-length (coincident timestamps): no measurable
    // frequency, not a 0/0 NaN.
    return stats;
  }
  double sum = 0;
  for (double f : freqs_khz) {
    sum += f;
  }
  stats.mean_khz = sum / static_cast<double>(freqs_khz.size());
  double var = 0;
  for (double f : freqs_khz) {
    var += (f - stats.mean_khz) * (f - stats.mean_khz);
  }
  stats.stddev_khz = std::sqrt(var / static_cast<double>(freqs_khz.size()));
  return stats;
}

std::string RenderAsciiWaveform(const std::vector<I2cBus::Sample>& samples, double window_ns,
                                int columns) {
  if (samples.empty()) {
    return "(no samples)\n";
  }
  if (columns <= 0 || window_ns <= 0) {
    return "(empty window)\n";
  }
  double start = samples.front().t_ns;
  double step = window_ns / columns;
  std::string scl_row = "SCL ";
  std::string sda_row = "SDA ";
  size_t cursor = 0;
  for (int c = 0; c < columns; ++c) {
    double t = start + c * step;
    while (cursor + 1 < samples.size() && samples[cursor + 1].t_ns <= t) {
      ++cursor;
    }
    scl_row += samples[cursor].scl ? '#' : '_';
    sda_row += samples[cursor].sda ? '#' : '_';
  }
  return scl_row + "\n" + sda_row + "\n";
}

}  // namespace efeu::sim
