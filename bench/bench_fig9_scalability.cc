// Reproduces Figure 9 (paper section 4.4): verification runtime of the
// EepDriver verifier with 1-3 EEPROMs as the maximum read/write payload
// length grows, plus the variable-payload configuration (first payload byte
// chosen nondeterministically from two options). Lower layers are replaced
// with the Transaction behaviour specification, the scalability mechanism of
// section 4.1. Expected shape: runtime grows steeply with payload length and
// with the number of responders.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/i2c/verify.h"

namespace efeu {
namespace {

double RunPoint(int num_eeproms, int max_len, bool variable_payload) {
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_eeproms = num_eeproms;
  config.max_len = max_len;
  config.num_ops = 3;
  config.variable_payload = variable_payload;
  DiagnosticEngine diag;
  i2c::VerifyRunResult result = i2c::RunVerification(config, diag);
  if (!result.ok) {
    std::printf("verification FAILED (eeproms=%d len=%d)\n", num_eeproms, max_len);
    return -1;
  }
  return result.total_seconds;
}

void Run() {
  bench::PrintHeader(
      "Figure 9: verification runtime (seconds) of the EepDriver verifier vs\n"
      "maximum read/write payload length, for 1-3 EEPROMs and the variable-\n"
      "payload configuration (Transaction behaviour spec below, 3 operations).");

  constexpr int kMaxLen = 8;
  bench::Table table({8, 12, 22, 12, 12});
  table.Row({"len", "1 EEPROM", "1 EEPROM (var payload)", "2 EEPROMs", "3 EEPROMs"});
  bench::PrintRule();
  for (int len = 1; len <= kMaxLen; ++len) {
    std::vector<std::string> cells = {std::to_string(len)};
    cells.push_back(bench::Fmt(RunPoint(1, len, false), 3));
    cells.push_back(bench::Fmt(RunPoint(1, len, true), 3));
    cells.push_back(bench::Fmt(RunPoint(2, len, false), 3));
    cells.push_back(bench::Fmt(RunPoint(3, len, false), 3));
    table.Row(cells);
  }
  std::printf(
      "\nPaper reference: runtimes reach ~2000 s at length 8 with 3 EEPROMs on\n"
      "their SPIN setup. Expected shape: monotone growth in payload length, a\n"
      "multiplicative factor per added EEPROM, and a further factor for the\n"
      "variable payload.\n");
}

// Hash compaction on the heaviest 2-EEPROM point above: its safety pass with
// the full-state table and with the fingerprint-only table.
void RunHashCompaction() {
  bench::PrintHeader(
      "Hash compaction: EepDriver verifier (Transaction spec below, 2 EEPROMs,\n"
      "len=4, 3 ops), safety pass, full-state vs fingerprint-only table.");

  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_eeproms = 2;
  config.max_len = 4;
  config.num_ops = 3;

  bench::Table table({12, 12, 12, 13});
  table.Row({"table", "seconds", "states", "bytes/state"});
  bench::PrintRule();

  for (bool fingerprint_only : {false, true}) {
    DiagnosticEngine diag;
    auto vs = i2c::BuildVerifier(config, diag);
    if (vs == nullptr) {
      std::printf("verifier build FAILED\n%s", diag.RenderAll().c_str());
      return;
    }
    check::CheckerOptions options;
    options.check_deadlock = true;
    options.fingerprint_only = fingerprint_only;
    // Unreduced search, like bench_table2's hash-compaction section: the
    // full rows store the whole snapshot vector, so the payload contrast is
    // the fingerprint's alone. The fault ablation below owns the
    // por/collapse story.
    options.por = false;
    options.collapse = false;
    check::CheckResult r = vs->system().Check(options);
    if (!r.ok) {
      std::printf("safety pass FAILED (%s table)\n", fingerprint_only ? "fingerprint" : "full");
      return;
    }
    double per_state =
        r.states_stored > 0 ? static_cast<double>(r.state_bytes) / r.states_stored : 0.0;
    table.Row({fingerprint_only ? "fingerprint" : "full", bench::Fmt(r.seconds, 3),
               std::to_string(r.states_stored), bench::Fmt(per_state, 1)});
  }
  std::printf(
      "\nExpected shape: equal state counts; fingerprint mode stores 8 bytes/state\n"
      "regardless of the snapshot size.\n");
}

// Reduction ablation over the EEPROM fault-injection configurations: the
// EepDriver verifier with the Transaction behaviour spec below and a fault
// budget >= 2, which is where the fault schedules multiply the state space.
// That pipeline is request/response-serialized (one message in flight), so
// classic ample sets find nothing: most states have exactly one enabled
// transition, and PickAmple never reduces a singleton. Forced-run chain
// compression (kPorChainSampleMask in checker.h) is what bites here — the
// serialized runs are walked inline and only sampled states are stored, so
// por=on roughly halves the stored set on top of COLLAPSE's bytes/state win.
// The tripwire fails the bench if a reduced search stores more states than
// the unreduced one or flips a verdict.
bool RunFaultAblation(bench::JsonReport* json) {
  bench::PrintHeader(
      "Reduction ablation on EEPROM fault configs (EepDriver verifier,\n"
      "Transaction spec below, fault budget >= 2): {por, collapse} x {on, off}.");

  struct AblationConfig {
    const char* name;
    int num_eeproms;
    int fault_events;
  };
  AblationConfig configs[] = {
      {"eep1/txn/faults2", 1, 2},
      {"eep1/txn/faults3", 1, 3},
      {"eep2/txn/faults2", 2, 2},
  };

  bench::Table table({18, 10, 10, 10, 12, 10, 13, 10});
  table.Row({"config", "por", "collapse", "states", "transitions", "reduced",
             "bytes/state", "seconds"});
  bench::PrintRule();

  bool sound = true;
  for (const AblationConfig& entry : configs) {
    i2c::VerifyConfig config;
    config.level = i2c::VerifyLevel::kEepDriver;
    config.abstraction = i2c::VerifyAbstraction::kTransaction;
    config.num_eeproms = entry.num_eeproms;
    config.max_len = 4;
    config.num_ops = 2;
    config.fault_events = entry.fault_events;

    uint64_t unreduced_states = 0;
    bool unreduced_ok = false;
    for (int por = 0; por <= 1; ++por) {
      for (int collapse = 0; collapse <= 1; ++collapse) {
        check::CheckerOptions base;
        base.por = por != 0;
        base.collapse = collapse != 0;
        DiagnosticEngine diag;
        i2c::VerifyRunResult r = i2c::RunVerification(config, diag, base);
        uint64_t payload = r.safety.state_bytes + r.safety.component_bytes;
        double per_state = r.safety.states_stored > 0
                               ? static_cast<double>(payload) / r.safety.states_stored
                               : 0.0;
        table.Row({entry.name, por ? "on" : "off", collapse ? "on" : "off",
                   std::to_string(r.safety.states_stored),
                   std::to_string(r.safety.transitions),
                   std::to_string(r.safety.por_reduced_states), bench::Fmt(per_state, 1),
                   bench::Fmt(r.total_seconds, 3)});
        if (json != nullptr) {
          json->AddRow()
              .Set("section", "fault_ablation")
              .Set("config", entry.name)
              .Set("num_eeproms", entry.num_eeproms)
              .Set("fault_events", entry.fault_events)
              .Set("por", base.por)
              .Set("collapse", base.collapse)
              .Set("ok", r.ok)
              .Set("states", r.safety.states_stored)
              .Set("transitions", r.safety.transitions)
              .Set("por_reduced_states", r.safety.por_reduced_states)
              .Set("state_bytes", r.safety.state_bytes)
              .Set("component_bytes", r.safety.component_bytes)
              .Set("bytes_per_state", per_state)
              .Set("seconds", r.total_seconds);
        }
        if (por == 0 && collapse == 0) {
          unreduced_states = r.safety.states_stored;
          unreduced_ok = r.ok;
        } else {
          if (r.ok != unreduced_ok) {
            std::printf("TRIPWIRE: verdict changed under por=%d collapse=%d on %s\n",
                        por, collapse, entry.name);
            sound = false;
          }
          if (r.safety.states_stored > unreduced_states) {
            std::printf(
                "TRIPWIRE: reduced search stored MORE states (%llu > %llu) under "
                "por=%d collapse=%d on %s\n",
                static_cast<unsigned long long>(r.safety.states_stored),
                static_cast<unsigned long long>(unreduced_states), por, collapse,
                entry.name);
            sound = false;
          }
        }
      }
    }
  }

  std::printf(
      "\nExpected shape: por=on stores roughly half the states of por=off\n"
      "(forced-run chain compression elides the serialized fault pipeline's\n"
      "singleton states; `reduced` counts the elided ones); COLLAPSE cuts\n"
      "bytes/state by an order of magnitude on top of that.\n");
  return sound;
}

}  // namespace
}  // namespace efeu

int main(int argc, char** argv) {
  // Flags: --json <path> writes the machine-readable report; --quick keeps
  // only the ablation section (CI perf smoke).
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  efeu::bench::JsonReport json("fig9_scalability");
  if (!quick) {
    efeu::Run();
    efeu::RunHashCompaction();
  }
  bool sound = efeu::RunFaultAblation(json_path.empty() ? nullptr : &json);
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  return sound ? 0 : 1;
}
