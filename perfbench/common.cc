#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/perfbench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double HostProbe(double budget_s, int threads) {
  static std::atomic<size_t> sink;
  std::vector<std::vector<double>> samples(static_cast<size_t>(threads));
  const double begin = Now();
  auto probe = [&](int thread) {
    std::vector<double>& mine = samples[static_cast<size_t>(thread)];
    while (mine.size() < 3 || Now() - begin < budget_s) {
      const double start = Now();
      {
        std::map<std::string, int> table;
        for (int i = 0; i < 20000; ++i) {
          table[std::to_string(Mix(static_cast<uint64_t>(i)))] = i;
        }
        sink.store(table.size(), std::memory_order_relaxed);
      }
      mine.push_back(Now() - start);
    }
  };
  std::vector<std::thread> workers;
  for (int thread = 1; thread < threads; ++thread) {
    workers.emplace_back(probe, thread);
  }
  probe(0);
  for (std::thread& worker : workers) {
    worker.join();
  }
  std::vector<double> all;
  for (const std::vector<double>& mine : samples) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  return Median(all);
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss also keeps the high-water mark of the
  // launcher's image from before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::map<std::string, double> MedianLayers(
    const std::vector<std::map<std::string, double>>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& pass : passes) {
    for (const auto& [name, value] : pass) {
      samples[name].push_back(value);
    }
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : samples) {
    medians[name] = Median(std::move(values));
  }
  return medians;
}

}  // namespace perfbench
