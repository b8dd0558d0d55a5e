// Shared surface of the repository benchmark: the run context every workload
// receives, the outcome it returns, and small timing/statistics helpers.
// Workloads call only public functions of the library and read the counters
// those functions expose; nothing here reaches into src/ internals.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// The seed the pinned outputs were recorded with. Any other seed is a
// held-out seed: only seed-independent invariants are checked on it.
inline constexpr uint64_t kDefaultSeed = 1;

struct RunContext {
  uint64_t seed = kDefaultSeed;
  // Measurement budget: timed passes repeat until this much wall time has
  // been spent on them (and at least kMinPasses passes ran).
  double seconds = 10;
  // Traced run: alternate untraced and traced passes, report per-layer
  // metrics and the tracing overhead instead of the end-to-end metrics.
  bool trace = false;
  // Worker threads for the workloads that use them: min(2, nproc).
  int threads = 1;

  bool default_seed() const { return seed == kDefaultSeed; }
};

inline constexpr int kMinPasses = 3;

// Measures how fast the host runs right now: on each of `threads` threads at
// once, repeats a fixed piece of benchmark-side work (a 20,000-entry
// std::map keyed by decimal strings, built and freed) at least 3 times and
// for at least `budget_s`, and returns the median seconds of one repetition.
// The work is the same mix of allocation, pointer chasing and branchy
// compares the toolchain and the simulators spend their time on; it calls
// nothing in the library. README.md ("Host-speed scaling").
double HostProbe(double budget_s, int threads);

// The probe after a timed pass or set-up runs for at least this share of
// the time just measured.
inline constexpr double kProbeShare = 0.05;

// HostProbe()'s median on the machine the bounds were set on (4-vCPU Xeon
// VM at 2.1 GHz, GCC 12, RelWithDebInfo). Reported times are scaled to it.
inline constexpr double kProbeReferenceSeconds = 0.0105;

struct Outcome {
  // Operations attempted and failed; a pin mismatch counts as a failure.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One line per failed check (printed, and the run reports correct=false).
  std::vector<std::string> mismatches;

  // End-to-end metrics (untraced run). probe_seconds[i] is the HostProbe()
  // run right after pass i.
  double setup_s = 0;
  std::vector<double> pass_seconds;
  std::vector<double> probe_seconds;
  std::vector<double> op_ms;
  // Human-readable extras printed in the report ("stacks_per_s 12.3 1/s").
  std::vector<std::string> notes;

  // Per-layer metrics (traced run), keyed by the names BENCHMARK.json lists.
  std::map<std::string, double> layers;

  // Records one timed pass of the untraced run, then probes the host speed
  // on as many threads as the pass ran on.
  void AddPass(double seconds, int threads) {
    pass_seconds.push_back(seconds);
    probe_seconds.push_back(HostProbe(seconds * kProbeShare, threads));
  }

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      mismatches.push_back(what);
    }
  }
};

// Monotonic wall clock in seconds.
double Now();

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Repeats the single-threaded `setup` `times` times, probing the host speed
// after each, and returns the median wall time scaled to the reference host;
// the last repetition's state is what the workload keeps.
template <typename Fn>
double MedianSetup(int times, Fn&& setup) {
  std::vector<double> samples;
  for (int i = 0; i < times; ++i) {
    const double start = Now();
    setup();
    const double seconds = Now() - start;
    samples.push_back(seconds / HostProbe(seconds * kProbeShare, 1) * kProbeReferenceSeconds);
  }
  return Median(samples);
}

// SplitMix64 finalizer: every seeded input is derived through it.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Seeded Fisher-Yates shuffle of items[first..].
template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed, size_t first) {
  for (size_t i = items->size(); i > first + 1; --i) {
    seed = Mix(seed);
    std::swap((*items)[i - 1], (*items)[first + seed % (i - first)]);
  }
}

// 64-bit FNV-1a, for pinning emitted artifacts and modeled outputs.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ull);
std::string Hex(uint64_t value);

// Per-key median over the per-pass layer maps of a traced run.
std::map<std::string, double> MedianLayers(const std::vector<std::map<std::string, double>>& passes);

Outcome RunFleetSoak(const RunContext& context);
Outcome RunReadStream(const RunContext& context);
Outcome RunVerifyGrid(const RunContext& context);
Outcome RunSpecBuild(const RunContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
