// esmfuzz — the grammar-based ESM/ESI fuzzer and four-way differential
// harness as a command-line tool. Three modes:
//
//   esmfuzz [--seed N] [--iterations N] [--repro-dir DIR] [--no-c]
//           [--no-minimize] [--max-divergences N] [--max-seconds S]
//       Fuzz campaign: generate/mutate specs, run checker vs VM vs RTL vs
//       generated C, minimize and dump divergences as .efz repro files.
//
//   esmfuzz --replay DIR|FILE [--no-c]
//       Replays every .efz corpus entry / repro through the harness.
//
//   esmfuzz --frontend N [--seed N]
//       Frontend robustness: N corrupted spec texts through parse/sema.
//
//   esmfuzz --generate-one SEED [--out FILE]
//       Renders the spec for one seed as an .efz entry (corpus seeding,
//       debugging).
//
// Exit codes: 0 no divergence, 1 divergence(s) found, 2 usage error,
// 3 replay input unreadable.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "src/fuzz/corpus.h"
#include "src/fuzz/fuzzer.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: esmfuzz [--seed N] [--iterations N] [--repro-dir DIR] [--no-c]\n"
               "               [--no-minimize] [--max-divergences N] [--max-seconds S]\n"
               "               [--max-layers N] [--max-steps N]\n"
               "       esmfuzz --replay DIR|FILE [--no-c]\n"
               "       esmfuzz --frontend N [--seed N]\n"
               "       esmfuzz --generate-one SEED [--out FILE]\n");
  return 2;
}

void DumpTrace(const char* name, const efeu::fuzz::TargetTrace& trace) {
  std::printf("  --- %s: %s after %d step(s)\n", name,
              efeu::fuzz::VerdictName(trace.verdict), trace.failed_step);
  for (size_t i = 0; i < trace.replies.size(); ++i) {
    std::printf("    reply %zu:", i);
    for (int32_t w : trace.replies[i]) std::printf(" %d", w);
    std::printf("\n");
  }
  for (const auto& [channel, msgs] : trace.channel_msgs) {
    for (size_t i = 0; i < msgs.size(); ++i) {
      std::printf("    %s msg %zu:", channel.c_str(), i);
      for (int32_t w : msgs[i]) std::printf(" %d", w);
      std::printf("\n");
    }
  }
  for (const auto& [layer, vars] : trace.final_vars) {
    std::printf("    %s vars:", layer.c_str());
    for (int32_t w : vars) std::printf(" %d", w);
    std::printf("\n");
  }
}

int Replay(const std::string& path, const efeu::fuzz::DifferentialOptions& diff,
           bool verbose) {
  std::vector<efeu::fuzz::CorpusEntry> entries;
  std::string error;
  if (std::filesystem::is_directory(path)) {
    if (!efeu::fuzz::LoadCorpusDir(path, &entries, &error)) {
      std::fprintf(stderr, "esmfuzz: %s\n", error.c_str());
      return 3;
    }
  } else {
    efeu::fuzz::CorpusEntry entry;
    if (!efeu::fuzz::LoadEntryFile(path, &entry, &error)) {
      std::fprintf(stderr, "esmfuzz: %s\n", error.c_str());
      return 3;
    }
    entries.push_back(std::move(entry));
  }
  int divergences = 0;
  for (const efeu::fuzz::CorpusEntry& entry : entries) {
    efeu::fuzz::DifferentialResult result =
        efeu::fuzz::RunDifferential(entry.esi, entry.esm, entry.stimuli, diff);
    const char* status;
    std::string detail;
    if (!result.accepted) {
      status = "REJECTED";
      detail = result.reject_reason;
    } else if (!result.agree) {
      status = "DIVERGED";
      detail = result.divergence;
      ++divergences;
    } else {
      status = "ok";
      detail = std::string(efeu::fuzz::VerdictName(result.vm.verdict)) +
               (result.c_ran ? ", c compared" : "");
    }
    std::printf("%-24s %s (%s)\n", entry.name.c_str(), status, detail.c_str());
    if (verbose && result.accepted) {
      DumpTrace("vm", result.vm);
      DumpTrace("checker", result.checker);
      if (result.vm.verdict == efeu::fuzz::Verdict::kOk) {
        DumpTrace("rtl", result.rtl);
      }
      if (result.c_ran) {
        DumpTrace("c", result.c);
      }
    }
  }
  std::printf("replayed %zu entries, %d divergences\n", entries.size(), divergences);
  return divergences > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  efeu::fuzz::FuzzOptions options;
  std::string replay_path;
  std::string generate_out;
  uint64_t generate_seed = 0;
  bool generate_one = false;
  int frontend_iterations = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--iterations") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.iterations = std::atoi(v);
    } else if (arg == "--repro-dir") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.repro_dir = v;
    } else if (arg == "--no-c") {
      options.differential.run_c = false;
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--max-divergences") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.max_divergences = std::atoi(v);
    } else if (arg == "--max-seconds") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.max_seconds = std::atof(v);
    } else if (arg == "--max-layers") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.generator.max_layers = std::atoi(v);
    } else if (arg == "--max-steps") {
      const char* v = value();
      if (v == nullptr) return Usage();
      options.generator.max_steps = std::atoi(v);
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return Usage();
      replay_path = v;
    } else if (arg == "--frontend") {
      const char* v = value();
      if (v == nullptr) return Usage();
      frontend_iterations = std::atoi(v);
    } else if (arg == "--generate-one") {
      const char* v = value();
      if (v == nullptr) return Usage();
      generate_one = true;
      generate_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return Usage();
      generate_out = v;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "esmfuzz: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }

  if (generate_one) {
    efeu::fuzz::SpecModel model = efeu::fuzz::GenerateSpec(generate_seed, options.generator);
    efeu::fuzz::CorpusEntry entry =
        efeu::fuzz::EntryFromModel(model, "generated by esmfuzz --generate-one");
    if (generate_out.empty()) {
      std::printf("%s", efeu::fuzz::SerializeEntry(entry).c_str());
    } else if (!efeu::fuzz::WriteEntryFile(generate_out, entry)) {
      std::fprintf(stderr, "esmfuzz: cannot write %s\n", generate_out.c_str());
      return 3;
    }
    return 0;
  }
  if (!replay_path.empty()) {
    return Replay(replay_path, options.differential, options.verbose);
  }
  if (frontend_iterations > 0) {
    efeu::fuzz::RunFrontendRobustness(options.seed, frontend_iterations, &std::cout);
    return 0;
  }

  efeu::fuzz::FuzzStats stats = efeu::fuzz::RunFuzzCampaign(options, &std::cout);
  std::printf(
      "campaign: %d generated, %d accepted, vm verdicts ok/assert/error/stuck "
      "%d/%d/%d/%d, %d C runs, %d divergences, %.1fs (%.1f specs/s)\n",
      stats.generated, stats.accepted, stats.vm_ok, stats.vm_assert, stats.vm_error,
      stats.vm_stuck, stats.c_runs, stats.divergences, stats.seconds,
      stats.seconds > 0 ? stats.generated / stats.seconds : 0.0);
  for (const std::string& summary : stats.divergence_summaries) {
    std::printf("divergence: %s\n", summary.c_str());
  }
  return stats.divergences > 0 ? 1 : 0;
}
