// read_stream: the paper's Fig 10 traffic. One fault-free, unsupervised
// HybridDriver per functional split x wait-mode row (9 rows; the interrupt-
// driven Electrical split does not function, as in the paper), each issuing
// back-to-back 14-byte reads over a seeded, preloaded EEPROM region on the
// default interp tier with monitors off. Closed loop, one caller per driver.
//
// The bus is busy nearly every cycle here, so idle-cycle skipping should gain
// little; the software VM does its largest share of the work on the
// Electrical and Symbol splits.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "src/driver/hybrid.h"
#include "src/i2c/stack.h"

namespace perfbench {
namespace {

using efeu::driver::HybridDriver;
using efeu::driver::SplitPoint;

constexpr int kLength = 14;
// Reads per row per pass; every row reads the same count, like Fig 10.
constexpr int kReadsPerRow = 8;
constexpr double kClockNs = 10.0;

struct Row {
  SplitPoint split;
  bool interrupt_driven;
  // Fig 10 as this reproduction models it: MeasureReads(3, 14) on a fresh
  // driver with the waveform captured ("kHz cpu irqs").
  const char* fig10;
};

const Row kRows[] = {
    {SplitPoint::kElectrical, false, "165.4590 1.000000 0"},
    {SplitPoint::kSymbol, false, "246.1190 1.000000 0"},
    {SplitPoint::kSymbol, true, "98.5781 0.550467 495"},
    {SplitPoint::kByte, false, "360.2375 1.000000 0"},
    {SplitPoint::kByte, true, "334.9734 0.306426 105"},
    {SplitPoint::kTransaction, false, "392.9570 1.000000 0"},
    {SplitPoint::kTransaction, true, "392.6563 0.103268 9"},
    {SplitPoint::kEepDriver, false, "396.7190 1.000000 0"},
    {SplitPoint::kEepDriver, true, "396.6507 0.035985 3"},
};

std::string Fig10Row(const Row& row) {
  efeu::driver::HybridConfig config;
  config.split = row.split;
  config.interrupt_driven = row.interrupt_driven;
  config.capture_waveform = true;
  HybridDriver driver(config);
  const efeu::driver::DriverMetrics m = driver.MeasureReads(3, kLength);
  char text[96];
  std::snprintf(text, sizeof(text), "%.4f %.6f %llu", m.frequency.mean_khz, m.cpu_usage,
                static_cast<unsigned long long>(m.irq_count));
  return m.functional ? text : "not functional";
}

struct Stream {
  std::unique_ptr<HybridDriver> driver;
  int start = 0;
  std::vector<uint8_t> expect;  // preloaded bytes from `start`
};

struct SplitTotals {
  double host_s = 0;
  double vm_s = 0;
  double cycles = 0;
  uint64_t insts = 0;
};

}  // namespace

Outcome RunReadStream(const RunContext& context) {
  Outcome out;
  std::vector<Stream> streams;
  std::vector<double> compile_s;
  std::shared_ptr<const efeu::ir::Compilation> compilation;
  out.setup_s = MedianSetup(5, [&] {
    double t0 = Now();
    efeu::DiagnosticEngine diag;
    compilation = efeu::i2c::CompileControllerStack(diag);
    compile_s.push_back(Now() - t0);
    streams.clear();
    uint64_t seed = context.seed;
    for (const Row& row : kRows) {
      Stream stream;
      efeu::driver::HybridConfig config;
      config.split = row.split;
      config.interrupt_driven = row.interrupt_driven;
      config.shared_compilation = compilation;
      stream.driver = std::make_unique<HybridDriver>(config);
      seed = Mix(seed);
      const int span = kReadsPerRow * kLength;
      stream.start = static_cast<int>(seed % static_cast<uint64_t>(65536 - span));
      for (int i = 0; i < span; ++i) {
        const uint8_t byte = static_cast<uint8_t>(Mix(seed + static_cast<uint64_t>(i)));
        stream.driver->eeprom().Preload(stream.start + i, byte);
        stream.expect.push_back(byte);
      }
      std::vector<uint8_t> warm;
      stream.driver->Read(stream.start, kLength, &warm);  // first timed op starts warm
      streams.push_back(std::move(stream));
    }
  });

  // One pass: every row reads its whole region once, row after row.
  auto pass = [&](bool traced, std::vector<double>* op_ms, SplitTotals* by_split,
                  std::map<std::string, double>* layers) {
    Tracer tracer;
    for (size_t r = 0; r < streams.size(); ++r) {
      Stream& stream = streams[r];
      HybridDriver& driver = *stream.driver;
      TimedDriver<HybridDriver> timed(&driver, &tracer);
      std::vector<uint8_t> data;
      for (int k = 0; k < kReadsPerRow; ++k) {
        const int offset = stream.start + k * kLength;
        const double vm0 = driver.vm_host_seconds();
        const double t0_ns = driver.now_ns();
        const uint64_t insts0 = driver.instructions_retired();
        const uint64_t irqs0 = driver.irq_count();
        const uint64_t bursts0 = driver.mmio_bursts();
        const double start = Now();
        const bool ok = traced ? timed.Read(offset, kLength, &data)
                               : driver.Read(offset, kLength, &data);
        const double host_s = Now() - start;
        ++out.attempted;
        if (!ok || data.size() != kLength ||
            !std::equal(data.begin(), data.end(), stream.expect.begin() + k * kLength)) {
          ++out.failed;
        }
        if (op_ms != nullptr) {
          op_ms->push_back(host_s * 1e3);
        }
        if (traced) {
          SplitTotals& t = by_split[static_cast<int>(kRows[r].split)];
          t.host_s += host_s;
          t.vm_s += driver.vm_host_seconds() - vm0;
          t.cycles += (driver.now_ns() - t0_ns) / kClockNs;
          t.insts += driver.instructions_retired() - insts0;
          (*layers)["driver.irqs"] += static_cast<double>(driver.irq_count() - irqs0);
          (*layers)["driver.mmio_bursts"] += static_cast<double>(driver.mmio_bursts() - bursts0);
        }
      }
    }
    if (traced) {
      tracer.AddSelfSeconds(layers);
      (*layers)["trace.spans"] = static_cast<double>(tracer.spans().size());
    }
  };

  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<std::map<std::string, double>> layer_passes;
  const double loop_start = Now();
  for (int n = 0; n < kMinPasses || Now() - loop_start < context.seconds; ++n) {
    double t0 = Now();
    pass(false, &out.op_ms, nullptr, nullptr);
    if (!context.trace) {
      out.AddPass(Now() - t0, 1);
      continue;
    }
    untraced_s.push_back(Now() - t0);
    SplitTotals by_split[5];
    std::map<std::string, double> layers;
    t0 = Now();
    pass(true, nullptr, by_split, &layers);
    traced_s.push_back(Now() - t0);
    SplitTotals all;
    for (int s = 0; s < 5; ++s) {
      const SplitTotals& t = by_split[s];
      all.host_s += t.host_s;
      all.vm_s += t.vm_s;
      all.cycles += t.cycles;
      all.insts += t.insts;
      const std::string name = efeu::driver::SplitPointName(static_cast<SplitPoint>(s));
      if (t.host_s > 0 && static_cast<SplitPoint>(s) != SplitPoint::kEepDriver) {
        layers["vm.share." + name] = t.vm_s / t.host_s;
      }
      if (t.cycles > 0) {
        layers["rtl.host_ns_per_cycle." + name] = (t.host_s - t.vm_s) * 1e9 / t.cycles;
      }
    }
    layers["vm.host_s"] = all.vm_s;
    layers["vm.insts"] = static_cast<double>(all.insts);
    layers["vm.insts_per_s"] = all.vm_s > 0 ? all.insts / all.vm_s : 0;
    layers["vm.share"] = all.host_s > 0 ? all.vm_s / all.host_s : 0;
    layers["rtl.cycles"] = all.cycles;
    layers["rtl.host_ns_per_cycle"] = all.cycles > 0 ? (all.host_s - all.vm_s) * 1e9 / all.cycles : 0;
    layer_passes.push_back(std::move(layers));
  }

  // Fig 10's modeled outputs do not depend on the seed: checked on every run.
  for (const Row& row : kRows) {
    const std::string got = Fig10Row(row);
    ++out.attempted;
    out.Check(got == row.fig10, std::string("Fig 10 row ") +
                                    efeu::driver::SplitPointName(row.split) +
                                    (row.interrupt_driven ? "/irq" : "/poll") + " is '" + got +
                                    "', pinned '" + row.fig10 + "'");
  }

  if (context.trace) {
    out.layers = MedianLayers(layer_passes);
    out.layers["trace.overhead_share"] = Median(traced_s) / Median(untraced_s) - 1;
    out.layers["ir.compile_s"] = Median(compile_s);
    out.layers["ir.compiles"] = 1;
    double insts = 0;
    for (const efeu::ir::Module& module : compilation->modules()) {
      insts += module.CountInsts();
    }
    out.layers["ir.insts"] = insts;
    return out;
  }
  char line[64];
  std::snprintf(line, sizeof(line), "reads_per_s %.1f 1/s",
                std::size(kRows) * kReadsPerRow / Median(out.pass_seconds));
  out.notes.push_back(line);
  return out;
}

}  // namespace perfbench
