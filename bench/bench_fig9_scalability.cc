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
  bench::RunHashCompaction(config);

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

  struct FaultConfig {
    const char* name;
    int num_eeproms;
    int fault_events;
  };
  const FaultConfig faults[] = {
      {"eep1/txn/faults2", 1, 2},
      {"eep1/txn/faults3", 1, 3},
      {"eep2/txn/faults2", 2, 2},
  };
  std::vector<bench::AblationConfig> configs;
  for (const FaultConfig& entry : faults) {
    i2c::VerifyConfig config;
    config.level = i2c::VerifyLevel::kEepDriver;
    config.abstraction = i2c::VerifyAbstraction::kTransaction;
    config.num_eeproms = entry.num_eeproms;
    config.max_len = 4;
    config.num_ops = 2;
    config.fault_events = entry.fault_events;
    configs.push_back({entry.name, config,
                       {{"num_eeproms", entry.num_eeproms},
                        {"fault_events", entry.fault_events}}});
  }
  bool sound = bench::RunReductionAblation(configs, "fault_ablation", json);

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
