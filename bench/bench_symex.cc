// Symbolic discharge vs explicit exploration (DESIGN.md "Symbolic
// execution"): for each EepDriver fault configuration, the explicit checker's
// safety pass is run as the baseline, then the same properties are handed to
// the symbolic executor (VerifyConfig::sym_discharge). A discharged config
// replaces the whole safety pass — every fault schedule at once — with a few
// hundred symbolic paths; the liveness pass still runs, so total wall time
// is reported alongside. Reset and fault-free configs are included as the
// designed non-discharged cases: their oracles count failures across
// operations or track data correspondence, which the module-local executor
// cannot prove, and the run must fall back to byte-identical explicit passes.
//
// Tripwire (exit 1): a discharged run must agree with the explicit verdict,
// a non-discharged run must store exactly the baseline's states, and the
// flagship fault config (eep2-len3-faults2) must actually discharge against
// a >= 10k-state explicit baseline.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/i2c/verify.h"

namespace efeu {
namespace {

struct SymexConfig {
  const char* name;
  int num_eeproms;
  int num_ops;
  int max_len;
  int fault_events;
  int reset_events;
  bool expect_discharge;
  bool quick;  // Included in --quick runs.
};

// The flagship row ("eep2-len3-faults2") must put the explicit safety pass
// past 10k stored states while still discharging symbolically.
const SymexConfig kConfigs[] = {
    {"eep1-len2-faults1", 1, 2, 2, 1, 0, true, true},
    {"eep1-len2-faults2", 1, 2, 2, 2, 0, true, true},
    {"eep1-len4-faults2", 1, 2, 4, 2, 0, true, false},
    {"eep2-len3-faults2", 2, 2, 3, 2, 0, true, true},
    {"eep1-len2-f1-reset1", 1, 2, 2, 1, 1, false, true},
    {"eep1-len2-plain", 1, 2, 2, 0, 0, false, true},
};

i2c::VerifyConfig MakeConfig(const SymexConfig& c) {
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_eeproms = c.num_eeproms;
  config.num_ops = c.num_ops;
  config.max_len = c.max_len;
  config.fault_events = c.fault_events;
  config.reset_events = c.reset_events;
  return config;
}

bool Run(bool quick, bench::JsonReport* json) {
  bench::PrintHeader(
      "Symbolic discharge vs explicit exploration: EepDriver verifier,\n"
      "Transaction abstraction. `expl states` is the explicit safety pass\n"
      "(all fault schedules); a discharged config covers them with `paths`\n"
      "symbolic paths instead and skips that pass entirely. `runs` counts\n"
      "symbolic executor runs; a module whose receive facts did not change\n"
      "since its last run reuses that summary.");

  bench::Table table({20, 8, 12, 8, 9, 6, 9, 10, 10, 10});
  table.Row({"config", "disch", "expl states", "paths", "queries", "runs", "sym ms", "expl s",
             "sym-run s", "speedup"});
  bench::PrintRule();

  bool ok = true;
  bool flagship_seen = false;
  for (const SymexConfig& c : kConfigs) {
    if (quick && !c.quick) {
      continue;
    }
    i2c::VerifyConfig config = MakeConfig(c);

    DiagnosticEngine explicit_diag;
    config.sym_discharge = false;
    i2c::VerifyRunResult explicit_run = i2c::RunVerification(config, explicit_diag);

    DiagnosticEngine sym_diag;
    config.sym_discharge = true;
    i2c::VerifyRunResult sym_run = i2c::RunVerification(config, sym_diag);

    // Tripwires. A wrong symbolic "proof" must never hide a violation the
    // explicit checker finds, and an undischarged fast path must not perturb
    // the search.
    if (sym_run.ok != explicit_run.ok) {
      std::printf("TRIPWIRE %s: sym-discharge verdict %d != explicit verdict %d\n", c.name,
                  sym_run.ok, explicit_run.ok);
      ok = false;
    }
    if (!sym_run.sym.discharged &&
        (sym_run.safety.states_stored != explicit_run.safety.states_stored ||
         sym_run.liveness.states_stored != explicit_run.liveness.states_stored)) {
      std::printf("TRIPWIRE %s: undischarged run perturbed the explicit search\n", c.name);
      ok = false;
    }
    if (sym_run.sym.discharged != c.expect_discharge) {
      std::printf("TRIPWIRE %s: discharged=%d, expected %d\n", c.name, sym_run.sym.discharged,
                  c.expect_discharge);
      ok = false;
    }
    if (std::strcmp(c.name, "eep2-len3-faults2") == 0) {
      flagship_seen = true;
      if (explicit_run.safety.states_stored < 10000 || !sym_run.sym.discharged) {
        std::printf("TRIPWIRE %s: flagship needs >=10k explicit states (got %llu) and a "
                    "discharge (got %d)\n",
                    c.name, (unsigned long long)explicit_run.safety.states_stored,
                    sym_run.sym.discharged);
        ok = false;
      }
    }

    double speedup = sym_run.total_seconds > 0 ? explicit_run.total_seconds / sym_run.total_seconds
                                               : 0;
    table.Row({c.name, sym_run.sym.discharged ? "yes" : "no",
               std::to_string(explicit_run.safety.states_stored),
               std::to_string(sym_run.sym.paths), std::to_string(sym_run.sym.solver_queries),
               std::to_string(sym_run.sym.module_runs), bench::Fmt(sym_run.sym.seconds * 1000, 1),
               bench::Fmt(explicit_run.total_seconds, 2), bench::Fmt(sym_run.total_seconds, 2),
               bench::Fmt(speedup, 2)});

    if (json != nullptr) {
      json->AddRow()
          .Set("section", "symex")
          .Set("config", std::string(c.name))
          .Set("discharged", sym_run.sym.discharged)
          .Set("obligations", sym_run.sym.obligations)
          .Set("proved", sym_run.sym.proved)
          .Set("paths", sym_run.sym.paths)
          .Set("solver_queries", sym_run.sym.solver_queries)
          .Set("solver_ms", sym_run.sym.seconds * 1000)
          .Set("rounds", sym_run.sym.rounds)
          .Set("module_runs", sym_run.sym.module_runs)
          .Set("explicit_safety_states", explicit_run.safety.states_stored)
          .Set("explicit_seconds", explicit_run.total_seconds)
          .Set("sym_run_seconds", sym_run.total_seconds)
          .Set("verdict_agrees", sym_run.ok == explicit_run.ok);
    }
  }
  if (!flagship_seen) {
    std::printf("TRIPWIRE: flagship config eep2-len3-faults2 did not run\n");
    ok = false;
  }
  std::printf(
      "\nDischarged rows prove every assertion, divisor and index bound for all\n"
      "fault schedules at once from the module summaries; only the liveness\n"
      "pass still explores. Non-discharged rows fall back to byte-identical\n"
      "explicit passes (asserted above).\n");
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
  efeu::bench::JsonReport json("symex");
  bool ok = efeu::Run(quick, &json);
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    ok = false;
  }
  return ok ? 0 : 1;
}
