// Reproduces Figure 10 (paper sections 5.2/5.3): achievable bus speed (top)
// and CPU usage (bottom) for the two baselines and every Efeu-generated
// hybrid split, in polling and interrupt-driven modes. Method mirrors the
// paper: 3 EEPROM reads of 14 bytes, SCL rising edges located in the captured
// waveform, instantaneous frequency = inverse of the gap between consecutive
// rising edges; CPU usage from a continuous-read steady state.
//
// Flags: --json <path> writes the machine-readable report.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/driver/baselines.h"
#include "src/driver/hybrid.h"

namespace efeu {
namespace {

struct PaperRef {
  double khz;
  double sd;
  double cpu;
};

void PrintRow(bench::Table& table, const std::string& name, const std::string& mode,
              const driver::DriverMetrics& metrics, const PaperRef& ref,
              bench::JsonReport* json) {
  if (json != nullptr) {
    json->AddRow()
        .Set("section", "fig10")
        .Set("driver", name)
        .Set("mode", mode)
        .Set("functional", metrics.functional)
        .Set("mean_khz", metrics.functional ? metrics.frequency.mean_khz : 0.0)
        .Set("sd_khz", metrics.functional ? metrics.frequency.stddev_khz : 0.0)
        .Set("cpu", metrics.functional ? metrics.cpu_usage : 0.0)
        .Set("paper_khz", ref.khz);
  }
  if (!metrics.functional) {
    table.Row({name, mode, "n/a", "n/a", "n/a", bench::Fmt(ref.khz, 1), metrics.note});
    return;
  }
  table.Row({name, mode, bench::Fmt(metrics.frequency.mean_khz, 2),
             bench::Fmt(metrics.frequency.stddev_khz, 2),
             bench::Fmt(100 * metrics.cpu_usage, 1), bench::Fmt(ref.khz, 1), ""});
}

void RunFigure10(bench::JsonReport* json) {
  constexpr int kOps = 3;
  constexpr int kLen = 14;

  bench::PrintHeader(
      "Figure 10: achievable bus speed and CPU usage (3 reads of 14 bytes;\n"
      "paper column = mean kHz reported on the Zynq UltraScale+ testbed)");
  bench::Table table({13, 10, 10, 9, 8, 10, 40});
  table.Row({"Driver", "Mode", "kHz", "sd kHz", "CPU %", "paper", "note"});
  bench::PrintRule();

  driver::TimingModel timing;
  sim::EepromConfig eeprom;

  {
    driver::BitBangDriver bitbang(timing, eeprom, /*capture_waveform=*/true);
    PrintRow(table, "Bit-banging", "polling", bitbang.MeasureReads(kOps, kLen),
             {162.81, 12.85, 100}, json);
  }
  {
    driver::XilinxIpDriver xilinx(timing, eeprom, /*capture_waveform=*/true);
    PrintRow(table, "Xilinx I2C", "interrupt", xilinx.MeasureReads(kOps, kLen),
             {386.57, 23.75, 12}, json);
  }

  struct SplitRef {
    driver::SplitPoint split;
    PaperRef polling;
    PaperRef interrupt;
  };
  SplitRef splits[] = {
      {driver::SplitPoint::kElectrical, {154.44, 12.97, 100}, {0, 0, 0}},
      {driver::SplitPoint::kSymbol, {263.32, 12.77, 100}, {108.76, 0, 64}},
      {driver::SplitPoint::kByte, {359.98, 89.82, 100}, {342.90, 123.58, 36}},
      {driver::SplitPoint::kTransaction, {392.48, 33.25, 100}, {392.24, 36.36, 8}},
      {driver::SplitPoint::kEepDriver, {396.02, 10.37, 100}, {396.01, 10.34, 4}},
  };
  for (const SplitRef& split : splits) {
    for (bool interrupt_driven : {false, true}) {
      driver::HybridConfig config;
      config.split = split.split;
      config.interrupt_driven = interrupt_driven;
      config.capture_waveform = true;
      config.timing = timing;
      config.eeprom = eeprom;
      driver::HybridDriver hybrid(config);
      PrintRow(table, driver::SplitPointName(split.split),
               interrupt_driven ? "interrupt" : "polling", hybrid.MeasureReads(kOps, kLen),
               interrupt_driven ? split.interrupt : split.polling, json);
    }
  }

  std::printf(
      "\nExpected shape (paper section 5.5): bus speed rises monotonically with\n"
      "the split point; Electrical is comparable to bit-banging; Transaction and\n"
      "EepDriver reach the Xilinx IP's speed; the interrupt-driven Electrical\n"
      "driver does not function; polling drivers pin one core while interrupt-\n"
      "driven CPU usage falls from Symbol to EepDriver, below the Xilinx IP.\n");
}

}  // namespace
}  // namespace efeu

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  efeu::bench::JsonReport json("fig10_speed_cpu");
  efeu::RunFigure10(json_path.empty() ? nullptr : &json);
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return 0;
}
