// Reproduces Table 2 (paper section 4.3): verification runtime per layer and
// abstraction level. Each verifier runs two model-checking passes (safety:
// assertions + invalid end states; liveness: non-progress cycles) and the
// runtimes are summed, mirroring how the paper compiles and runs SPIN in each
// configuration. The expected shape: runtime grows steeply up the stack and
// drops sharply with each added abstraction level.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/i2c/verify.h"

namespace efeu {
namespace {

std::optional<double> RunCell(i2c::VerifyLevel level, i2c::VerifyAbstraction abstraction) {
  // Supported combinations: abstraction strictly below the level under test.
  auto rank = [](auto x) { return static_cast<int>(x); };
  if (abstraction != i2c::VerifyAbstraction::kNone &&
      rank(abstraction) >= rank(level) + 1) {
    return std::nullopt;
  }
  if (level == i2c::VerifyLevel::kSymbol && abstraction != i2c::VerifyAbstraction::kNone) {
    return std::nullopt;
  }
  i2c::VerifyConfig config;
  config.level = level;
  config.abstraction = abstraction;
  // Input spaces sized so the runtime ladder is visible while the largest
  // configuration stays in the tens of seconds.
  switch (level) {
    case i2c::VerifyLevel::kSymbol:
      config.num_ops = 4;
      config.stretch_input = true;
      break;
    case i2c::VerifyLevel::kByte:
      config.num_ops = 3;
      break;
    case i2c::VerifyLevel::kTransaction:
      config.num_ops = 2;
      config.max_len = 3;
      break;
    case i2c::VerifyLevel::kEepDriver:
      config.num_ops = 2;
      config.max_len = 3;
      break;
  }
  DiagnosticEngine diag;
  i2c::VerifyRunResult result = i2c::RunVerification(config, diag);
  if (!result.ok) {
    std::printf("verification FAILED for level %d abstraction %d\n", rank(level),
                rank(abstraction));
    return std::nullopt;
  }
  return result.total_seconds;
}

void Run() {
  bench::PrintHeader(
      "Table 2: verification runtime (seconds) per layer x abstraction level.\n"
      "Sum of the safety (assertions + invalid end states) and liveness\n"
      "(non-progress cycle) passes, like the paper's summed SPIN runs.");

  const char* abstraction_names[] = {"None", "Symbol", "Byte", "Transaction"};
  bench::Table table({13, 12, 12, 12, 12});
  table.Row({"Layer", "None", "Symbol", "Byte", "Transaction"});
  bench::PrintRule();

  struct LevelRow {
    const char* name;
    i2c::VerifyLevel level;
  };
  LevelRow levels[] = {
      {"Symbol", i2c::VerifyLevel::kSymbol},
      {"Byte", i2c::VerifyLevel::kByte},
      {"Transaction", i2c::VerifyLevel::kTransaction},
      {"EepDriver", i2c::VerifyLevel::kEepDriver},
  };
  i2c::VerifyAbstraction abstractions[] = {
      i2c::VerifyAbstraction::kNone,
      i2c::VerifyAbstraction::kSymbol,
      i2c::VerifyAbstraction::kByte,
      i2c::VerifyAbstraction::kTransaction,
  };
  (void)abstraction_names;

  for (const LevelRow& row : levels) {
    std::vector<std::string> cells = {row.name};
    for (i2c::VerifyAbstraction abstraction : abstractions) {
      std::optional<double> seconds = RunCell(row.level, abstraction);
      cells.push_back(seconds.has_value() ? bench::Fmt(*seconds, 3) : "");
    }
    table.Row(cells);
  }

  std::printf(
      "\nPaper reference (s): Symbol 0.24; Byte 11.33/4.01; Transaction\n"
      "104.53/34.79/6.11; EepDriver 584.78/196.31/38.92/9.15. Expected shape:\n"
      "runtime rises sharply with the layer under test and drops by roughly an\n"
      "order of magnitude per abstraction level. All verifiers pass.\n");
}

// Hash compaction on the heaviest single safety pass reproduced above: the
// Byte-layer verifier over the full stack, with the full-state table and
// with the fingerprint-only table (same state count, 8 bytes per state
// instead of the full vector).
void RunHashCompaction() {
  bench::PrintHeader(
      "Hash compaction: Byte-layer verifier, full stack (3 ops), safety pass.\n"
      "bytes/state is the visited-set payload.");

  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kByte;
  config.abstraction = i2c::VerifyAbstraction::kNone;
  config.num_ops = 3;
  bench::RunHashCompaction(config);

  std::printf(
      "\nExpected shape: equal state counts; fingerprint mode stores a fixed\n"
      "8 bytes/state (>= 4x below the full vector) at a false-negative\n"
      "probability of ~states^2 / 2^65.\n");
}

// The whole supported layer x abstraction grid dispatched as one suite on a
// verification thread pool, the way a driver developer would run the full
// matrix in CI.
void RunSuitePool(int pool_threads) {
  bench::PrintHeader("Verification suite on a thread pool (all supported combos).");

  std::vector<i2c::VerifyConfig> configs;
  i2c::VerifyLevel levels[] = {i2c::VerifyLevel::kSymbol, i2c::VerifyLevel::kByte,
                               i2c::VerifyLevel::kTransaction, i2c::VerifyLevel::kEepDriver};
  i2c::VerifyAbstraction abstractions[] = {
      i2c::VerifyAbstraction::kNone, i2c::VerifyAbstraction::kSymbol,
      i2c::VerifyAbstraction::kByte, i2c::VerifyAbstraction::kTransaction};
  auto rank = [](auto x) { return static_cast<int>(x); };
  for (i2c::VerifyLevel level : levels) {
    for (i2c::VerifyAbstraction abstraction : abstractions) {
      if (abstraction != i2c::VerifyAbstraction::kNone && rank(abstraction) >= rank(level) + 1) {
        continue;
      }
      if (level == i2c::VerifyLevel::kSymbol && abstraction != i2c::VerifyAbstraction::kNone) {
        continue;
      }
      i2c::VerifyConfig config;
      config.level = level;
      config.abstraction = abstraction;
      config.num_ops = 2;
      configs.push_back(config);
    }
  }

  auto wall_start = std::chrono::steady_clock::now();
  std::vector<i2c::VerifySuiteItem> items =
      i2c::RunVerificationSuite(configs, {}, pool_threads);
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  double summed = 0;
  int failed = 0;
  for (const i2c::VerifySuiteItem& item : items) {
    summed += item.result.total_seconds;
    if (!item.error.empty() || !item.result.ok) {
      ++failed;
    }
  }
  std::printf("%zu configurations, %d failed; wall %.3f s vs %.3f s summed (%.2fx)\n",
              items.size(), failed, wall, summed, wall > 0 ? summed / wall : 0.0);
}

// Ablation of the state-space reductions (partial-order reduction and
// COLLAPSE-style component compression) over the full-stack verifiers, where
// pipeline stages run concurrently and POR has interleavings to remove. Each
// configuration runs the four {por, collapse} combinations; a soundness
// tripwire fails the bench if the reduced search ever stores MORE states than
// the unreduced one, or if any combination changes the verdict.
bool RunReductionAblation(bench::JsonReport* json, bool quick) {
  bench::PrintHeader(
      "State-space reduction ablation: {por, collapse} x {on, off} per config.\n"
      "reduced = states popped with only their ample transition explored;\n"
      "bytes/state counts the visited-set payload plus the component pool.");

  std::vector<bench::AblationConfig> configs;
  {
    i2c::VerifyConfig symbol;
    symbol.level = i2c::VerifyLevel::kSymbol;
    symbol.num_ops = 2;
    configs.push_back({"symbol/full/ops2", symbol, {}});
    i2c::VerifyConfig byte2;
    byte2.level = i2c::VerifyLevel::kByte;
    byte2.num_ops = 2;
    configs.push_back({"byte/full/ops2", byte2, {}});
    if (!quick) {
      i2c::VerifyConfig byte3;
      byte3.level = i2c::VerifyLevel::kByte;
      byte3.num_ops = 3;
      configs.push_back({"byte/full/ops3", byte3, {}});
    }
  }
  bool sound = bench::RunReductionAblation(configs, "reduction_ablation", json);

  std::printf(
      "\nExpected shape: POR removes interleavings on the full-stack verifiers\n"
      "(the pipeline stages transfer concurrently); COLLAPSE cuts bytes/state\n"
      "by >= 3x by interning per-process snapshots. Neither changes a verdict.\n");
  return sound;
}

}  // namespace
}  // namespace efeu

int main(int argc, char** argv) {
  // Flags: --json <path> writes the machine-readable report; --quick keeps
  // only the fast sections (CI perf smoke). A bare integer sets the suite
  // thread-pool size (0 = one per hardware thread).
  int pool_threads = 0;
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      pool_threads = std::atoi(argv[i]);
    }
  }
  efeu::bench::JsonReport json("table2_verification");
  if (!quick) {
    efeu::Run();
    efeu::RunHashCompaction();
    efeu::RunSuitePool(pool_threads);
  }
  bool sound =
      efeu::RunReductionAblation(json_path.empty() ? nullptr : &json, quick);
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return sound ? 0 : 1;
}
