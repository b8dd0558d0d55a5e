// Shared helpers for the benchmark/reproduction binaries: simple aligned
// table printing to stdout, mirroring the paper's tables and figures, the
// JSON report, and the two checker sections bench_table2_verification and
// bench_fig9_scalability share (hash compaction, reduction ablation).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/i2c/verify.h"

namespace efeu::bench {

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

// A very small fixed-column table printer.
class Table {
 public:
  explicit Table(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(const std::vector<std::string>& cells) {
    std::string line;
    for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      std::string cell = cells[i];
      int width = widths_[i];
      if (static_cast<int>(cell.size()) > width) {
        cell = cell.substr(0, static_cast<size_t>(width));
      }
      line += cell;
      line.append(static_cast<size_t>(width) - cell.size() + 2, ' ');
    }
    std::printf("%s\n", line.c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string Fmt(double value, int decimals = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

// Machine-readable mirror of the tables: benches accumulate flat rows and
// write them as `{"bench": ..., "rows": [...]}` when invoked with
// `--json <path>`. CI merges the per-bench files into BENCH_check.json.
class JsonRow {
 public:
  JsonRow& Set(const std::string& key, const std::string& value) {
    std::string escaped;
    for (char c : value) {
      if (c == '"' || c == '\\') {
        escaped += '\\';
      }
      escaped += c;
    }
    fields_.emplace_back(key, "\"" + escaped + "\"");
    return *this;
  }
  JsonRow& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonRow& Set(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
    fields_.emplace_back(key, buffer);
    return *this;
  }
  JsonRow& Set(const std::string& key, uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Set(const std::string& key, int value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Set(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  JsonRow& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  // Returns false (and prints a message) if the file cannot be written.
  bool WriteTo(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", path.c_str());
      return false;
    }
    std::fprintf(file, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", bench_name_.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(file, "    %s%s\n", rows_[i].Render().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(file, "  ]\n}\n");
    std::fclose(file);
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<JsonRow> rows_;
};

// Hash compaction on one verifier's safety pass: a row for the full-state
// table and one for the fingerprint-only table (same state count, 8 bytes
// per state instead of the full vector). Both searches are unreduced:
// COLLAPSE would shrink the full row, and the reduction ablation below owns
// the por/collapse story.
inline void RunHashCompaction(const i2c::VerifyConfig& config) {
  Table table({12, 12, 12, 13});
  table.Row({"table", "seconds", "states", "bytes/state"});
  PrintRule();
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
    options.por = false;
    options.collapse = false;
    check::CheckResult r = vs->system().Check(options);
    if (!r.ok) {
      std::printf("safety pass FAILED (%s table)\n", fingerprint_only ? "fingerprint" : "full");
      return;
    }
    double per_state =
        r.states_stored > 0 ? static_cast<double>(r.state_bytes) / r.states_stored : 0.0;
    table.Row({fingerprint_only ? "fingerprint" : "full", Fmt(r.seconds, 3),
               std::to_string(r.states_stored), Fmt(per_state, 1)});
  }
}

// One configuration of a reduction ablation: its row name, the verifier
// config, and the integer JSON fields its rows carry after "config".
struct AblationConfig {
  std::string name;
  i2c::VerifyConfig config;
  std::vector<std::pair<std::string, int>> json_fields;
};

// Runs each configuration under the four {por, collapse} combinations and
// prints one table row per run (and adds one JSON row with the given section
// when `json` is set). The soundness tripwire: returns false if a reduced
// search ever stores MORE states than the unreduced run of its
// configuration, or if any combination changes the verdict.
inline bool RunReductionAblation(const std::vector<AblationConfig>& configs,
                                 const char* section, JsonReport* json) {
  Table table({18, 10, 10, 10, 12, 10, 13, 10});
  table.Row({"config", "por", "collapse", "states", "transitions", "reduced",
             "bytes/state", "seconds"});
  PrintRule();

  bool sound = true;
  for (const AblationConfig& entry : configs) {
    const char* name = entry.name.c_str();
    uint64_t unreduced_states = 0;
    bool unreduced_ok = false;
    for (int por = 0; por <= 1; ++por) {
      for (int collapse = 0; collapse <= 1; ++collapse) {
        check::CheckerOptions base;
        base.por = por != 0;
        base.collapse = collapse != 0;
        DiagnosticEngine diag;
        i2c::VerifyRunResult r = i2c::RunVerification(entry.config, diag, base);
        uint64_t payload = r.safety.state_bytes + r.safety.component_bytes;
        double per_state = r.safety.states_stored > 0
                               ? static_cast<double>(payload) / r.safety.states_stored
                               : 0.0;
        table.Row({name, por ? "on" : "off", collapse ? "on" : "off",
                   std::to_string(r.safety.states_stored),
                   std::to_string(r.safety.transitions),
                   std::to_string(r.safety.por_reduced_states), Fmt(per_state, 1),
                   Fmt(r.total_seconds, 3)});
        if (json != nullptr) {
          JsonRow& row = json->AddRow().Set("section", section).Set("config", name);
          for (const auto& [key, value] : entry.json_fields) {
            row.Set(key, value);
          }
          row.Set("por", base.por)
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
          continue;
        }
        if (r.ok != unreduced_ok) {
          std::printf("TRIPWIRE: verdict changed under por=%d collapse=%d on %s\n", por,
                      collapse, name);
          sound = false;
        }
        if (r.safety.states_stored > unreduced_states) {
          std::printf(
              "TRIPWIRE: reduced search stored MORE states (%llu > %llu) under "
              "por=%d collapse=%d on %s\n",
              static_cast<unsigned long long>(r.safety.states_stored),
              static_cast<unsigned long long>(unreduced_states), por, collapse, name);
          sound = false;
        }
      }
    }
  }
  return sound;
}

}  // namespace efeu::bench

#endif  // BENCH_BENCH_UTIL_H_
