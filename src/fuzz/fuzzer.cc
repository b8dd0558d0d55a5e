#include "src/fuzz/fuzzer.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <ostream>

#include "src/fuzz/corpus.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/mutator.h"
#include "src/fuzz/rng.h"
#include "src/ir/compile.h"

namespace efeu::fuzz {

std::string DivergenceSignature(const std::string& divergence) {
  std::string target = divergence.substr(0, divergence.find(':'));
  for (const char* aspect : {"verdict", "reply", "channel", "final", "completed"}) {
    if (divergence.find(aspect) != std::string::npos) {
      return target + "/" + aspect;
    }
  }
  return target + "/other";
}

FuzzStats RunFuzzCampaign(const FuzzOptions& options, std::ostream* log) {
  auto start = std::chrono::steady_clock::now();
  FuzzStats stats;
  Rng master(options.seed);
  // Recently accepted models, mutation fodder.
  std::vector<SpecModel> keep;
  constexpr size_t kKeepCap = 32;

  for (int i = 0; i < options.iterations && stats.divergences < options.max_divergences; ++i) {
    if (options.max_seconds > 0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >=
            options.max_seconds) {
      if (log != nullptr) {
        *log << "fuzz: time box reached after " << i << " iterations\n";
      }
      break;
    }
    uint64_t spec_seed = master.Next();
    SpecModel model;
    bool mutated = options.mutate_every > 0 && !keep.empty() &&
                   i % options.mutate_every == options.mutate_every - 1;
    if (mutated) {
      Rng rng(spec_seed);
      model = MutateModel(keep[rng.Below(static_cast<int>(keep.size()))], rng);
      model.seed = spec_seed;
    } else {
      model = GenerateSpec(spec_seed, options.generator);
    }
    ++stats.generated;
    if (options.verbose && log != nullptr) {
      *log << "fuzz: iter " << i << " seed " << spec_seed << (mutated ? " (mutated)" : "")
           << "\n" << std::flush;
    }

    DifferentialResult result = RunDifferential(model, options.differential);
    if (!result.accepted) {
      // Mutations may step outside the language (e.g. a schedule now too
      // short); generated specs must never be rejected — surface those.
      if (!mutated && log != nullptr) {
        *log << "fuzz: seed " << spec_seed
             << ": generator produced a rejected spec:\n" << result.reject_reason << "\n";
      }
      continue;
    }
    ++stats.accepted;
    if (result.c_ran) {
      ++stats.c_runs;
    }
    switch (result.vm.verdict) {
      case Verdict::kOk:
        ++stats.vm_ok;
        break;
      case Verdict::kAssertFailed:
        ++stats.vm_assert;
        break;
      case Verdict::kRuntimeError:
        ++stats.vm_error;
        break;
      default:
        ++stats.vm_stuck;
        break;
    }
    if (keep.size() < kKeepCap) {
      keep.push_back(model.CloneModel());
    } else {
      keep[spec_seed % kKeepCap] = model.CloneModel();
    }

    const std::string& divergence = result.divergence;
    if (divergence.empty()) {
      continue;
    }
    std::string signature = DivergenceSignature(divergence);
    if (std::find(stats.divergence_signatures.begin(), stats.divergence_signatures.end(),
                  signature) != stats.divergence_signatures.end()) {
      continue;  // Same bug shape already captured.
    }
    stats.divergence_signatures.push_back(signature);
    ++stats.divergences;
    if (log != nullptr) {
      *log << "fuzz: seed " << spec_seed << ": DIVERGENCE [" << signature << "] "
           << divergence << "\n";
    }

    SpecModel repro = model.CloneModel();
    if (options.minimize) {
      MinimizeOracle oracle = [&](const SpecModel& candidate) {
        DifferentialResult r = RunDifferential(candidate, options.differential);
        if (!r.accepted) {
          return false;
        }
        return !r.agree && DivergenceSignature(r.divergence) == signature;
      };
      MinimizeStats min_stats;
      repro = Minimize(repro, oracle, MinimizeOptions{}, &min_stats);
      if (log != nullptr) {
        *log << "fuzz: minimized in " << min_stats.attempts << " attempts ("
             << min_stats.successes << " reductions)\n";
      }
    }
    std::string summary = "seed " + std::to_string(spec_seed) + ": " + divergence;
    stats.divergence_summaries.push_back(summary);
    if (!options.repro_dir.empty()) {
      std::filesystem::create_directories(options.repro_dir);
      std::string slug = signature;
      std::replace(slug.begin(), slug.end(), '/', '_');
      std::string path = options.repro_dir + "/repro_" + slug + "_" +
                         std::to_string(spec_seed) + ".efz";
      CorpusEntry entry = EntryFromModel(repro, summary);
      if (WriteEntryFile(path, entry)) {
        stats.repro_files.push_back(path);
        if (log != nullptr) {
          *log << "fuzz: repro written to " << path << "\n";
        }
      } else if (log != nullptr) {
        *log << "fuzz: FAILED to write repro " << path << "\n";
      }
    }
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return stats;
}

int RunFrontendRobustness(uint64_t seed, int iterations, std::ostream* log) {
  Rng master(seed);
  int still_compiled = 0;
  for (int i = 0; i < iterations; ++i) {
    SpecModel model = GenerateSpec(master.Next());
    Rng rng(master.Next());
    std::string esi = model.RenderEsi();
    std::string esm = model.RenderEsm();
    // Corrupt one of the two sources (or both).
    int which = static_cast<int>(rng.Below(3));
    if (which != 1) {
      esi = MutateText(esi, rng);
    }
    if (which != 0) {
      esm = MutateText(esm, rng);
    }
    DiagnosticEngine diag;
    // Must reject with diagnostics or accept — never crash or hang.
    if (ir::Compile(esi, esm, diag) != nullptr) {
      ++still_compiled;
    }
  }
  if (log != nullptr) {
    *log << "frontend robustness: " << iterations << " corrupted inputs, " << still_compiled
         << " still compiled, no crashes\n";
  }
  return still_compiled;
}

}  // namespace efeu::fuzz
