// Sustained-throughput bench: a long continuous-read workload against the
// 24AA512 measuring what the paper's figure 10 snapshot cannot — steady-state
// operation rate and boundary-crossing cost, with and without the batched
// boundary (MMIO bursts + interrupt coalescing).
//
// One section, sustained_batching: a batching sweep across splits.
// Bursts/coalescing may only speed up the modeled timeline, never slow the
// bus, and the counters account for the crossings.
//
// Flags: --json <path> writes the machine-readable report; --quick trims the
// workload for CI smoke runs.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/driver/hybrid.h"

namespace efeu {
namespace {

driver::DriverMetrics Measure(const driver::HybridConfig& config, int ops, int len) {
  driver::HybridDriver hybrid(config);
  return hybrid.MeasureReads(ops, len);
}

// Modeled operations per second of modeled time — the sustained rate a real
// CPU at the modeled speed would achieve.
double OpsPerSecond(const driver::DriverMetrics& metrics, int ops) {
  return metrics.elapsed_ns > 0 ? 1e9 * ops / metrics.elapsed_ns : 0;
}

bool RunBatchingSection(bench::JsonReport* json, bool quick) {
  const int ops = quick ? 4 : 16;
  const int len = 14;
  bench::PrintHeader(
      "Sustained throughput: boundary batching (interrupt-driven; bursts +\n"
      "40 us IRQ drain window vs word-at-a-time, one row per split)");
  bench::Table table({13, 9, 10, 10, 8, 12, 12});
  table.Row({"Split", "batched", "ops/s", "kHz", "IRQs", "bursts", "coalesced"});
  bench::PrintRule();

  bool ok = true;
  for (driver::SplitPoint split :
       {driver::SplitPoint::kByte, driver::SplitPoint::kTransaction,
        driver::SplitPoint::kEepDriver}) {
    double plain_ops_per_s = 0;
    for (bool batched : {false, true}) {
      driver::HybridConfig config;
      config.split = split;
      config.capture_waveform = true;
      config.interrupt_driven = true;
      if (batched) {
        config.mmio_bursts = true;
        config.irq_coalesce_window_ns = 40000.0;
      }
      driver::DriverMetrics metrics = Measure(config, ops, len);
      if (!metrics.functional) {
        std::printf("%s/%s: NOT FUNCTIONAL (%s)\n", driver::SplitPointName(split),
                    batched ? "batched" : "plain", metrics.note.c_str());
        ok = false;
        continue;
      }
      double ops_per_s = OpsPerSecond(metrics, ops);
      if (!batched) {
        plain_ops_per_s = ops_per_s;
      } else if (ops_per_s + 1e-9 < plain_ops_per_s * 0.999) {
        std::printf("%s: batching slowed the modeled timeline (%.1f -> %.1f ops/s)!\n",
                    driver::SplitPointName(split), plain_ops_per_s, ops_per_s);
        ok = false;
      }
      table.Row({driver::SplitPointName(split), batched ? "yes" : "no",
                 bench::Fmt(ops_per_s, 1), bench::Fmt(metrics.frequency.mean_khz, 1),
                 std::to_string(metrics.irq_count), std::to_string(metrics.mmio_bursts),
                 std::to_string(metrics.irqs_coalesced)});
      std::printf("  %s\n", driver::FormatExecCounters(metrics).c_str());
      if (json != nullptr) {
        json->AddRow()
            .Set("section", "sustained_batching")
            .Set("split", driver::SplitPointName(split))
            .Set("batched", batched)
            .Set("ops", ops)
            .Set("ops_per_second", ops_per_s)
            .Set("mean_khz", metrics.frequency.mean_khz)
            .Set("cpu", metrics.cpu_usage)
            .Set("irq_count", metrics.irq_count)
            .Set("mmio_bursts", metrics.mmio_bursts)
            .Set("irqs_coalesced", metrics.irqs_coalesced);
      }
    }
  }
  return ok;
}

}  // namespace
}  // namespace efeu

int main(int argc, char** argv) {
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  efeu::bench::JsonReport json("throughput_sustained");
  efeu::bench::JsonReport* report = json_path.empty() ? nullptr : &json;
  const bool ok = efeu::RunBatchingSection(report, quick);
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return ok ? 0 : 1;
}
