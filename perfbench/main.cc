// perfbench: the repository benchmark. One workload per run:
//
//   perfbench --workload fleet_soak|read_stream|verify_grid|spec_build
//             --seed N --seconds S --trace 0|1
//
// Prints a run header, one line per metric (name, value, unit), and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs traced passes
// beside untraced ones and reports the per-layer metrics (0 where the
// workload does not exercise a layer) plus the tracing overhead. README.md
// in this directory documents the workloads and metrics.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. BENCHMARK.json lists the same
// names; run.py refuses a result whose names differ from it.
const MetricDef kLayerMetrics[] = {
    {"ir.compile_s", "s"},
    {"ir.compiles", "count"},
    {"ir.insts", "count"},
    {"analysis.lint_s", "s"},
    {"analysis.sym_s", "s"},
    {"analysis.sym_paths", "count"},
    {"analysis.solver_queries", "count"},
    {"analysis.proved", "count"},
    {"codegen.c_s", "s"},
    {"codegen.verilog_s", "s"},
    {"codegen.promela_s", "s"},
    {"codegen.mmio_s", "s"},
    {"codegen.bytes", "bytes"},
    {"check.build_s", "s"},
    {"check.safety_s", "s"},
    {"check.liveness_s", "s"},
    {"check.states", "count"},
    {"check.transitions", "count"},
    {"check.states_per_s", "1/s"},
    {"check.bytes_per_state", "bytes"},
    {"check.por_reduced", "count"},
    {"vm.host_s", "s"},
    {"vm.insts", "count"},
    {"vm.insts_per_s", "1/s"},
    {"vm.share", "share"},
    {"vm.share.Electrical", "share"},
    {"vm.share.Symbol", "share"},
    {"vm.share.Byte", "share"},
    {"vm.share.Transaction", "share"},
    {"rtl.cycles", "count"},
    {"rtl.host_ns_per_cycle", "ns"},
    {"rtl.host_ns_per_cycle.Electrical", "ns"},
    {"rtl.host_ns_per_cycle.Symbol", "ns"},
    {"rtl.host_ns_per_cycle.Byte", "ns"},
    {"rtl.host_ns_per_cycle.Transaction", "ns"},
    {"rtl.host_ns_per_cycle.EepDriver", "ns"},
    {"rtl.host_ns_per_cycle.eeprom", "ns"},
    {"rtl.host_ns_per_cycle.muxed", "ns"},
    {"rtl.host_ns_per_cycle.multimaster", "ns"},
    {"rtl.host_ns_per_cycle.mfd", "ns"},
    {"sim.faults_injected", "count"},
    {"driver.read_s", "s"},
    {"driver.write_s", "s"},
    {"driver.soft_reset_s", "s"},
    {"driver.probe_s", "s"},
    {"driver.wait_bus_free_s", "s"},
    {"driver.mux_select_s", "s"},
    {"supervisor.self_s", "s"},
    {"driver.attempts", "count"},
    {"driver.retries", "count"},
    {"driver.useful_share", "share"},
    {"supervisor.soft_resets", "count"},
    {"supervisor.reprobes", "count"},
    {"supervisor.degraded_entries", "count"},
    {"driver.irqs", "count"},
    {"driver.mmio_bursts", "count"},
    {"monitor.trips", "count"},
    {"trace.spans", "count"},
    {"trace.overhead_share", "share"},
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunContext&);
};

const Workload kWorkloads[] = {
    {"fleet_soak", RunFleetSoak},
    {"read_stream", RunReadStream},
    {"verify_grid", RunVerifyGrid},
    {"spec_build", RunSpecBuild},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_soak|read_stream|verify_grid|spec_build\n"
               "                 --seed N --seconds S --trace 0|1\n");
  return 2;
}

void AddMetric(std::string* json, const char* name, double value, const char* unit) {
  std::printf("%-36s %.9g %s\n", name, value, unit);
  char entry[160];
  std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name, value, unit);
  *json += entry;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Workload* workload = nullptr;
  RunContext context;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          workload = &w;
        }
      }
    } else if (flag == "--seed") {
      context.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      context.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && context.seconds > 0 && context.seconds <= 60;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      context.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  context.threads = nproc >= 2 ? 2 : 1;
  const bool debug_build = std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0 ||
                           std::strcmp(PERFBENCH_BUILD_TYPE, "") == 0;
  std::printf("perfbench workload=%s seed=%llu%s seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(context.seed),
              context.default_seed() ? " (pinned)" : " (held out)", context.seconds,
              context.trace ? 1 : 0);
  std::printf("nproc=%ld threads=%d build=%s compiler=%s\n", nproc, context.threads,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  if (debug_build) {
    std::printf("WARNING: unoptimized build; these numbers are not comparable\n");
  }
  std::fflush(stdout);

  Outcome out = workload->run(context);
  for (const std::string& note : out.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& mismatch : out.mismatches) {
    std::printf("MISMATCH: %s\n", mismatch.c_str());
  }

  // Per-operation latency is reported with its sample count but not gated:
  // see README.md ("Why op latency is not a gated metric").
  if (!out.op_ms.empty()) {
    std::printf("op_ms_p50 %.6g ms, op_ms_p99 %.6g ms (%zu ops)\n", Quantile(out.op_ms, 0.50),
                Quantile(out.op_ms, 0.99), out.op_ms.size());
  }
  std::string metrics;
  if (context.trace) {
    for (const MetricDef& def : kLayerMetrics) {
      auto it = out.layers.find(def.name);
      AddMetric(&metrics, def.name, it == out.layers.end() ? 0.0 : it->second, def.unit);
    }
  } else {
    // Each pass is scaled by the host probe run right after it (README.md,
    // "Host-speed scaling"); setup_s comes scaled from MedianSetup.
    std::vector<double> scaled;
    for (size_t i = 0; i < out.pass_seconds.size(); ++i) {
      scaled.push_back(out.pass_seconds[i] / out.probe_seconds[i] * kProbeReferenceSeconds);
    }
    std::printf("passes=%zu wall pass_s %.6g s, probe %.6g s (reference %.6g s)\n",
                out.pass_seconds.size(), Median(out.pass_seconds), Median(out.probe_seconds),
                kProbeReferenceSeconds);
    AddMetric(&metrics, "setup_s", out.setup_s, "s");
    AddMetric(&metrics, "pass_s", Median(scaled), "s");
    AddMetric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
  }
  const bool correct = out.failed == 0 && out.mismatches.empty();
  std::printf("failed_share %.6g (%llu of %llu)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted > 0 ? out.attempted : 1),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
