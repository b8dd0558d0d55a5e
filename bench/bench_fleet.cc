// Fleet-scale co-simulation bench: how many supervised driver stacks the
// fleet runs to completion per host second, swept across fleet sizes, plus
// the determinism tripwire (one fixed fleet run at three thread counts must
// produce one byte-identical aggregate signature).
//
// Two sections:
//   fleet_scaling       stack-count sweep 1 -> 4096 over the mixed soak
//                       population (EEPROM / muxed / multi-master / MFD in
//                       both wait modes); every fleet must finish with zero
//                       failures and zero wedged stacks. The process's peak
//                       resident memory after each row shows that a fleet
//                       holds one stack per worker thread, not all of them.
//   fleet_determinism   same fleet at 1, 2 and 8 worker threads; any drift
//                       in the aggregate counter signature fails the bench.
//
// Flags: --json <path> writes the machine-readable report; --quick trims the
// sweep for CI smoke runs.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/fleet.h"

namespace efeu {
namespace {

// The process's peak resident set (VmHWM) in MB; 0 where /proc is missing.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

sim::FleetReport RunFleet(int num_stacks, int num_threads, uint64_t base_seed) {
  sim::FleetOptions options;
  options.num_threads = num_threads;
  sim::Fleet fleet(options);
  for (int i = 0; i < num_stacks; ++i) {
    fleet.AddStack(sim::MakeSoakStack(i, base_seed));
  }
  return fleet.Run();
}

bool RunScalingSection(bench::JsonReport* json, bool quick) {
  bench::PrintHeader(
      "Fleet scaling: mixed supervised soak population, one shared compile\n"
      "(seed base 1, single worker; stacks/s is host-side throughput; rtl ticked\n"
      "is the share of modeled RTL edges evaluated, the rest skipped as idle;\n"
      "peak MB is the process's peak resident memory so far)");
  bench::Table table({8, 10, 10, 9, 9, 8, 12, 9, 11, 8});
  table.Row({"Stacks", "stacks/s", "ops/s", "faults", "resets", "wedged",
             "makespan ms", "host s", "rtl ticked", "peak MB"});
  bench::PrintRule();

  bool ok = true;
  std::vector<int> sweep = {1, 16, 64, 256, 1024, 4096};
  if (quick) {
    sweep = {1, 16, 64, 256};
  }
  for (int stacks : sweep) {
    sim::FleetReport report = RunFleet(stacks, /*num_threads=*/1, /*base_seed=*/1);
    if (!report.failures.empty() || report.wedged != 0) {
      std::printf("%d stacks: %zu failures, %d wedged!\n%s\n", stacks,
                  report.failures.size(), report.wedged,
                  report.failures.empty() ? report.Format().c_str()
                                          : report.failures.front().c_str());
      ok = false;
    }
    double ops_per_s = report.host_seconds > 0
                           ? static_cast<double>(report.ops_completed) / report.host_seconds
                           : 0;
    double ticked_share = report.rtl_cycles > 0
                              ? static_cast<double>(report.rtl_cycles_ticked) /
                                    static_cast<double>(report.rtl_cycles)
                              : 0;
    const double peak_rss_mb = PeakRssMb();
    table.Row({std::to_string(stacks), bench::Fmt(report.stacks_per_second, 1),
               bench::Fmt(ops_per_s, 1),
               std::to_string(report.faults_injected),
               std::to_string(report.recovery.soft_resets),
               std::to_string(report.wedged),
               bench::Fmt(report.makespan_ns / 1e6, 3),
               bench::Fmt(report.host_seconds, 2),
               bench::Fmt(100 * ticked_share, 1) + "%", bench::Fmt(peak_rss_mb, 1)});
    if (json != nullptr) {
      json->AddRow()
          .Set("section", "fleet_scaling")
          .Set("stacks", stacks)
          .Set("stacks_per_second", report.stacks_per_second)
          .Set("ops_per_second", ops_per_s)
          .Set("events_processed", report.events_processed)
          .Set("faults_injected", report.faults_injected)
          .Set("soft_resets", report.recovery.soft_resets)
          .Set("degraded", report.degraded)
          .Set("wedged", report.wedged)
          .Set("makespan_ns", report.makespan_ns)
          .Set("host_seconds", report.host_seconds)
          .Set("rtl_cycles", report.rtl_cycles)
          .Set("rtl_ticked_share", ticked_share)
          .Set("peak_rss_mb", peak_rss_mb);
    }
  }
  return ok;
}

bool RunDeterminismSection(bench::JsonReport* json, bool quick) {
  const int stacks = quick ? 16 : 64;
  bench::PrintHeader(
      "Fleet determinism: one fleet, three thread counts, one signature");
  bench::Table table({9, 10, 12, 10});
  table.Row({"Threads", "stacks/s", "host s", "signature"});
  bench::PrintRule();

  bool ok = true;
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    sim::FleetReport report = RunFleet(stacks, threads, /*base_seed=*/7);
    std::string signature = report.CounterSignature();
    bool match = baseline.empty() || signature == baseline;
    if (baseline.empty()) {
      baseline = signature;
    }
    if (!match) {
      std::printf("thread count %d changed the aggregate!\n  want %s\n  got  %s\n",
                  threads, baseline.c_str(), signature.c_str());
      ok = false;
    }
    table.Row({std::to_string(threads), bench::Fmt(report.stacks_per_second, 1),
               bench::Fmt(report.host_seconds, 2), match ? "match" : "DRIFT"});
    if (json != nullptr) {
      json->AddRow()
          .Set("section", "fleet_determinism")
          .Set("stacks", stacks)
          .Set("threads", threads)
          .Set("stacks_per_second", report.stacks_per_second)
          .Set("signature_matches", match);
    }
  }
  std::printf("  %s\n", baseline.c_str());
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
  efeu::bench::JsonReport json("fleet");
  efeu::bench::JsonReport* report = json_path.empty() ? nullptr : &json;
  bool ok = efeu::RunScalingSection(report, quick);
  ok = efeu::RunDeterminismSection(report, quick) && ok;
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return ok ? 0 : 1;
}
