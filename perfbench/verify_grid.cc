// verify_grid: time to verdict for a verification user.
// i2c::RunVerificationSuite on a pool of `threads` threads with default
// CheckerOptions (POR and COLLAPSE on, sequential DFS per config, so state
// counts are deterministic) over:
//   - the 10 Table 2 level x abstraction combos (bench_table2 input sizes);
//   - state-heavy Fig 9 points: EepDriver over the Transaction spec with
//     2-3 EEPROMs and longer payloads (3 operations);
//   - EEPROM fault and reset configs, where POR is idle and COLLAPSE carries
//     the memory.
// The seed only permutes the order the pool picks configs up in; every
// config's verdict, states and transitions are pinned on every seed.
// No simulation runs here, so a simulator change must read as no change.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "src/i2c/verify.h"

namespace perfbench {
namespace {

using efeu::i2c::VerifyAbstraction;
using efeu::i2c::VerifyConfig;
using efeu::i2c::VerifyLevel;

struct GridEntry {
  const char* name;
  VerifyConfig config;
  // "ok <safety states>/<transitions> <liveness states>/<transitions>".
  const char* pinned;
};

VerifyConfig Table2(VerifyLevel level, VerifyAbstraction abstraction) {
  VerifyConfig config;
  config.level = level;
  config.abstraction = abstraction;
  switch (level) {
    case VerifyLevel::kSymbol:
      config.num_ops = 4;
      config.stretch_input = true;
      break;
    case VerifyLevel::kByte:
      config.num_ops = 3;
      break;
    case VerifyLevel::kTransaction:
    case VerifyLevel::kEepDriver:
      config.num_ops = 2;
      config.max_len = 3;
      break;
  }
  return config;
}

VerifyConfig EepTxn(int num_eeproms, int max_len, int num_ops, int faults, int resets) {
  VerifyConfig config;
  config.level = VerifyLevel::kEepDriver;
  config.abstraction = VerifyAbstraction::kTransaction;
  config.num_eeproms = num_eeproms;
  config.max_len = max_len;
  config.num_ops = num_ops;
  config.fault_events = faults;
  config.reset_events = resets;
  return config;
}

// The pool hands configs out in order, so the pass ends when the last long
// config does. The 9 longest configs go first, longest first, on every
// seed; the seed permutes only the 6 shortest after them (each under 2% of
// a pass), so the permutation cannot stretch the pass by much.
constexpr size_t kFixedHead = 9;

std::vector<GridEntry> Grid() {
  using A = VerifyAbstraction;
  using L = VerifyLevel;
  // The first kFixedHead entries are in descending order of check time.
  return {
      {"f9-eep3-len3", EepTxn(3, 3, 3, 0, 0), "ok 19206/98373 87795/91142"},
      {"f9-eep2-len4", EepTxn(2, 4, 3, 0, 0), "ok 12987/66491 59707/62050"},
      {"t2-eep-none", Table2(L::kEepDriver, A::kNone), "ok 10319/29399 29382/29399"},
      {"t2-eep-symbol", Table2(L::kEepDriver, A::kSymbol), "ok 4476/11632 11615/11632"},
      {"t2-txn-none", Table2(L::kTransaction, A::kNone), "ok 4667/13299 13183/13209"},
      {"eep1-len4-f2", EepTxn(1, 4, 2, 2, 0), "ok 4270/9392 8663/9129"},
      {"t2-byte-none", Table2(L::kByte, A::kNone), "ok 2556/6525 6420/6525"},
      {"t2-txn-symbol", Table2(L::kTransaction, A::kSymbol), "ok 2122/5321 5295/6005"},
      {"eep1-len2-f1-reset1", EepTxn(1, 2, 2, 1, 1), "ok 1879/4193 3860/4054"},
      {"t2-symbol-none", Table2(L::kSymbol, A::kNone), "ok 640/1896 1790/1881"},
      {"t2-byte-symbol", Table2(L::kByte, A::kSymbol), "ok 1151/3148 2838/2937"},
      {"t2-txn-byte", Table2(L::kTransaction, A::kByte), "ok 191/1288 956/1174"},
      {"t2-eep-byte", Table2(L::kEepDriver, A::kByte), "ok 459/2703 2686/2703"},
      {"t2-eep-txn", Table2(L::kEepDriver, A::kTransaction), "ok 183/896 879/896"},
      {"eep1-len2-reset1", EepTxn(1, 2, 2, 0, 1), "ok 669/2335 1511/1600"},
  };
}

std::string Verdict(const efeu::i2c::VerifySuiteItem& item) {
  const efeu::i2c::VerifyRunResult& r = item.result;
  return std::string(r.ok && item.error.empty() ? "ok " : "FAIL ") +
         std::to_string(r.safety.states_stored) + "/" + std::to_string(r.safety.transitions) +
         " " + std::to_string(r.liveness.states_stored) + "/" +
         std::to_string(r.liveness.transitions);
}

}  // namespace

Outcome RunVerifyGrid(const RunContext& context) {
  Outcome out;
  std::vector<GridEntry> grid;
  std::vector<VerifyConfig> configs;
  double compilations = 0;
  double insts = 0;
  out.setup_s = MedianSetup(3, [&] {
    grid = Grid();
    SeededShuffle(&grid, context.seed, kFixedHead);
    configs.clear();
    compilations = 0;
    insts = 0;
    for (const GridEntry& entry : grid) {
      configs.push_back(entry.config);
      efeu::DiagnosticEngine diag;
      std::unique_ptr<efeu::i2c::VerifierSystem> system = efeu::i2c::BuildVerifier(entry.config, diag);
      if (system == nullptr) {
        continue;
      }
      for (const auto& comp : system->compilations()) {
        ++compilations;
        for (const efeu::ir::Module& module : comp->modules()) {
          insts += module.CountInsts();
        }
      }
    }
  });

  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<std::map<std::string, double>> layer_passes;
  std::vector<efeu::i2c::VerifySuiteItem> items;
  const double loop_start = Now();
  for (int n = 0; n < kMinPasses || Now() - loop_start < context.seconds; ++n) {
    const double t0 = Now();
    items = efeu::i2c::RunVerificationSuite(configs, {}, context.threads);
    if (context.trace) {
      untraced_s.push_back(Now() - t0);
    } else {
      out.AddPass(Now() - t0, context.threads);
    }
    for (size_t i = 0; i < items.size(); ++i) {
      ++out.attempted;
      out.Check(Verdict(items[i]) == grid[i].pinned,
                std::string(grid[i].name) + " verdict '" + Verdict(items[i]) + "', pinned '" +
                    grid[i].pinned + "'");
    }
    if (!context.trace) {
      continue;
    }
    // Traced pass: one span per verifier build, then the same suite call in
    // one span; the checker's own per-pass seconds split the suite into
    // safety and liveness.
    std::map<std::string, double> layers;
    Tracer tracer;
    for (const VerifyConfig& config : configs) {
      ScopedSpan span(&tracer, "check.build");
      efeu::DiagnosticEngine diag;
      efeu::i2c::BuildVerifier(config, diag);
    }
    const double t1 = Now();
    {
      ScopedSpan span(&tracer, "check.suite");
      items = efeu::i2c::RunVerificationSuite(configs, {}, context.threads);
    }
    traced_s.push_back(Now() - t1);
    tracer.AddSelfSeconds(&layers);
    layers["ir.compile_s"] = layers["check.build_s"];
    double states = 0;
    double transitions = 0;
    double safety_states = 0;
    double bytes = 0;
    double por_reduced = 0;
    for (const efeu::i2c::VerifySuiteItem& item : items) {
      const efeu::check::CheckResult& safety = item.result.safety;
      const efeu::check::CheckResult& liveness = item.result.liveness;
      layers["check.safety_s"] += safety.seconds;
      layers["check.liveness_s"] += liveness.seconds;
      states += static_cast<double>(safety.states_stored + liveness.states_stored);
      transitions += static_cast<double>(safety.transitions + liveness.transitions);
      safety_states += static_cast<double>(safety.states_stored);
      bytes += static_cast<double>(safety.state_bytes + safety.component_bytes);
      por_reduced += static_cast<double>(safety.por_reduced_states);
    }
    const double check_s = layers["check.safety_s"] + layers["check.liveness_s"];
    layers["check.states"] = states;
    layers["check.transitions"] = transitions;
    layers["check.states_per_s"] = check_s > 0 ? states / check_s : 0;
    layers["check.bytes_per_state"] = safety_states > 0 ? bytes / safety_states : 0;
    layers["check.por_reduced"] = por_reduced;
    layers["trace.spans"] = static_cast<double>(tracer.spans().size());
    layer_passes.push_back(std::move(layers));
  }

  if (context.trace) {
    out.layers = MedianLayers(layer_passes);
    out.layers["trace.overhead_share"] = Median(traced_s) / Median(untraced_s) - 1;
    out.layers["ir.compiles"] = compilations;
    out.layers["ir.insts"] = insts;
    return out;
  }
  std::string line = "per-config seconds:";
  for (size_t i = 0; i < items.size(); ++i) {
    char cell[64];
    std::snprintf(cell, sizeof(cell), " %s=%.3f", grid[i].name, items[i].result.total_seconds);
    line += cell;
  }
  out.notes.push_back(line);
  char text[64];
  std::snprintf(text, sizeof(text), "verify_s %.4f s", Median(out.pass_seconds));
  out.notes.push_back(text);
  return out;
}

}  // namespace perfbench
