// The fuzz campaign driver: generate (or mutate) specs, run each through the
// four-way differential harness, auto-minimize divergences, and dump them as
// standalone .efz repro files. Also hosts the frontend-robustness mode that
// feeds corrupted spec text through the compiler pipeline.

#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/fuzz/differential.h"
#include "src/fuzz/generator.h"

namespace efeu::fuzz {

struct FuzzOptions {
  uint64_t seed = 1;
  int iterations = 100;
  // Every Nth iteration mutates a previously accepted model instead of
  // generating a fresh one (0 = generate only).
  int mutate_every = 4;
  // Shrink each divergence before dumping it.
  bool minimize = true;
  // Directory for minimized repro .efz files ("" = don't write files).
  std::string repro_dir;
  // Stop the campaign after this many distinct divergence signatures.
  int max_divergences = 10;
  // Stop cleanly once this much wall-clock time has elapsed (0 = no limit).
  // Lets CI time-box a long campaign without a kill signal eating the
  // summary and the repro files.
  double max_seconds = 0;
  GeneratorOptions generator;
  DifferentialOptions differential;
  bool verbose = false;
};

struct FuzzStats {
  int generated = 0;   // specs produced (fresh + mutated)
  int accepted = 0;    // specs the frontend accepted
  int vm_ok = 0;
  int vm_assert = 0;
  int vm_error = 0;
  int vm_stuck = 0;
  int c_runs = 0;      // specs that reached the dlopen'd C target
  int divergences = 0; // distinct divergence signatures found
  std::vector<std::string> divergence_signatures;
  std::vector<std::string> divergence_summaries;
  std::vector<std::string> repro_files;
  double seconds = 0;
};

// Classifies a divergence description into a dedup signature
// ("<target>/<aspect>", e.g. "c/reply" or "rtl/final").
std::string DivergenceSignature(const std::string& divergence);

FuzzStats RunFuzzCampaign(const FuzzOptions& options, std::ostream* log);

// Frontend robustness: renders a fresh spec, corrupts the text, and runs the
// full compile pipeline, which must reject or accept without crashing.
// Returns the number of corrupted inputs that still compiled.
int RunFrontendRobustness(uint64_t seed, int iterations, std::ostream* log);

}  // namespace efeu::fuzz

#endif  // SRC_FUZZ_FUZZER_H_
