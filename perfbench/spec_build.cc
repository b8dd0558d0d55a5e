// spec_build: the driver developer's esmc loop over every shipped spec.
// Each spec goes through the frontend and IR, esmlint (Werror), esmsym, and
// the backends that apply to it: C, Verilog and the MMIO bridges (one per
// hardware/software boundary) for the driver stacks, Promela for every
// compilation. Specs: the controller stack and its quirk variant, the
// responder stack and its KS0127 variant, the 10 I2C verifier mixes and the
// 2 SPI verifiers. The seed only permutes the build order; each spec's
// artifact digest, lint findings (none) and sym proof counts are pinned.
// This is the only workload where `analysis` and `codegen` do the work.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "perfbench/trace.h"
#include "src/analysis/analysis.h"
#include "src/analysis/sym/symexec.h"
#include "src/codegen/c/c_backend.h"
#include "src/codegen/mmio/mmio_backend.h"
#include "src/codegen/promela/promela_backend.h"
#include "src/codegen/verilog/verilog_backend.h"
#include "src/i2c/stack.h"
#include "src/i2c/verify.h"
#include "src/spi/verify.h"

namespace perfbench {
namespace {

using efeu::ir::Compilation;

// Owns whatever a spec's compile step produced; `compilations` points into it.
struct Built {
  std::unique_ptr<Compilation> stack;
  std::unique_ptr<efeu::i2c::VerifierSystem> i2c;
  std::unique_ptr<efeu::spi::SpiVerifierSystem> spi;
  std::vector<const Compilation*> compilations;
};

struct Spec {
  const char* name;
  std::function<Built()> compile;
  // C entry layer; empty for verifier mixes (Promela only).
  const char* c_entry;
  bool mmio;
  // "<artifact digest> <sym proved>/<obligations>".
  const char* pinned;
};

Built Stack(std::unique_ptr<Compilation> comp) {
  Built built;
  built.stack = std::move(comp);
  if (built.stack != nullptr) {
    built.compilations.push_back(built.stack.get());
  }
  return built;
}

Built I2cVerifier(efeu::i2c::VerifyLevel level, efeu::i2c::VerifyAbstraction abstraction) {
  efeu::i2c::VerifyConfig config;
  config.level = level;
  config.abstraction = abstraction;
  efeu::DiagnosticEngine diag;
  Built built;
  built.i2c = efeu::i2c::BuildVerifier(config, diag);
  if (built.i2c != nullptr) {
    for (const auto& comp : built.i2c->compilations()) {
      built.compilations.push_back(comp.get());
    }
  }
  return built;
}

Built SpiVerifier(efeu::spi::SpiVerifyLevel level) {
  efeu::spi::SpiVerifyConfig config;
  config.level = level;
  efeu::DiagnosticEngine diag;
  Built built;
  built.spi = efeu::spi::BuildSpiVerifier(config, diag);
  if (built.spi != nullptr) {
    built.compilations.push_back(built.spi->compilation_.get());
  }
  return built;
}

std::vector<Spec> Specs() {
  using A = efeu::i2c::VerifyAbstraction;
  using L = efeu::i2c::VerifyLevel;
  auto controller = [](bool quirks) {
    return [quirks] {
      efeu::i2c::ControllerStackOptions options;
      options.no_clock_stretching = quirks;
      options.ks0127_compat = quirks;
      efeu::DiagnosticEngine diag;
      return Stack(efeu::i2c::CompileControllerStack(diag, options));
    };
  };
  auto responder = [](bool ks0127) {
    return [ks0127] {
      efeu::i2c::ResponderStackOptions options;
      options.ks0127 = ks0127;
      efeu::DiagnosticEngine diag;
      return Stack(efeu::i2c::CompileResponderStack(diag, options));
    };
  };
  auto i2c = [](L level, A abstraction) {
    return [level, abstraction] { return I2cVerifier(level, abstraction); };
  };
  auto spi = [](efeu::spi::SpiVerifyLevel level) { return [level] { return SpiVerifier(level); }; };
  return {
      {"controller", controller(false), "CEepDriver", true, "6a8488f046ebccdb 7/13"},
      {"controller-quirks", controller(true), "CEepDriver", true, "9e8686670b4a3d4a 7/13"},
      {"responder", responder(false), "RSymbol", false, "633c905c2bee6dd3 6/6"},
      {"responder-ks0127", responder(true), "RSymbol", false, "d98cf3b73a0620e0 6/6"},
      {"i2c-symbol-none", i2c(L::kSymbol, A::kNone), "", false, "cf89fddbf22c6d37 0/7"},
      {"i2c-byte-none", i2c(L::kByte, A::kNone), "", false, "33e7e97057796f17 0/16"},
      {"i2c-byte-symbol", i2c(L::kByte, A::kSymbol), "", false, "2786f189f6f9ebc1 0/16"},
      {"i2c-txn-none", i2c(L::kTransaction, A::kNone), "", false, "8e274bdb2feac644 6/22"},
      {"i2c-txn-symbol", i2c(L::kTransaction, A::kSymbol), "", false, "a520e38fcff9da9a 6/22"},
      {"i2c-txn-byte", i2c(L::kTransaction, A::kByte), "", false, "9feaa57051a1ce67 6/26"},
      {"i2c-eep-none", i2c(L::kEepDriver, A::kNone), "", false, "2aab9fbd76a81701 27/33"},
      {"i2c-eep-symbol", i2c(L::kEepDriver, A::kSymbol), "", false, "bb2c6a1b8de5f8ea 27/33"},
      {"i2c-eep-byte", i2c(L::kEepDriver, A::kByte), "", false, "fbfc7c4e53f54979 27/37"},
      {"i2c-eep-txn", i2c(L::kEepDriver, A::kTransaction), "", false, "008a13fe7e91053d 24/30"},
      {"spi-byte", spi(efeu::spi::SpiVerifyLevel::kByte), "", false, "0a848031e2a8ce76 0/5"},
      {"spi-driver", spi(efeu::spi::SpiVerifyLevel::kDriver), "", false, "3c46c9b20a3504b1 6/7"},
  };
}

// The hardware/software boundaries a controller stack can be split at.
const char* const kBoundaries[][2] = {
    {"CWorld", "CEepDriver"}, {"CEepDriver", "CTransaction"}, {"CTransaction", "CByte"},
    {"CByte", "CSymbol"},     {"CSymbol", "Electrical"},
};

// Builds one spec end to end; returns "<digest> <proved>/<obligations>", or
// an error description. With a tracer, each step runs inside its own span.
std::string BuildSpec(const Spec& spec, Tracer* tracer, std::map<std::string, double>* counts) {
  auto step = [tracer](const char* name, const auto& fn) {
    if (tracer == nullptr) {
      fn();
      return;
    }
    ScopedSpan span(tracer, name);
    fn();
  };
  Built built;
  step("ir.compile", [&] { built = spec.compile(); });
  if (built.compilations.empty()) {
    return "compile failed";
  }
  uint64_t digest = 1469598103934665603ull;
  int findings = 0;
  int proved = 0;
  int obligations = 0;
  for (const Compilation* comp : built.compilations) {
    step("analysis.lint", [&] {
      efeu::DiagnosticEngine diag;
      efeu::analysis::AnalysisOptions options;
      options.werror = true;
      const efeu::analysis::AnalysisResult result =
          efeu::analysis::AnalyzeCompilation(*comp, diag, options);
      findings += result.errors + result.warnings + result.suppressed;
    });
    step("analysis.sym", [&] {
      const efeu::analysis::sym::CompilationSummary summary =
          efeu::analysis::sym::AnalyzeCompilationSym(*comp);
      efeu::DiagnosticEngine diag;
      efeu::analysis::AnalysisOptions options;
      options.werror = true;
      const efeu::analysis::AnalysisResult result =
          efeu::analysis::ReportSymFindings(*comp, summary, diag, options);
      findings += result.errors + result.warnings + result.suppressed;
      for (const auto& module : summary.modules) {
        for (const auto& site : module.sites) {
          ++obligations;
          proved += site.proved ? 1 : 0;
        }
      }
      if (counts != nullptr) {
        (*counts)["analysis.sym_paths"] += static_cast<double>(summary.TotalPaths());
        (*counts)["analysis.solver_queries"] += static_cast<double>(summary.TotalSolverQueries());
      }
    });
    std::string artifacts;
    if (*spec.c_entry != '\0') {
      step("codegen.c", [&] { artifacts += efeu::codegen::GenerateC(*comp, spec.c_entry).Combined(); });
      step("codegen.verilog", [&] { artifacts += efeu::codegen::GenerateVerilog(*comp).Combined(); });
    }
    if (spec.mmio) {
      step("codegen.mmio", [&] {
        for (const auto& boundary : kBoundaries) {
          const auto* down = comp->system().FindChannel(boundary[0], boundary[1]);
          const auto* up = comp->system().FindChannel(boundary[1], boundary[0]);
          const efeu::codegen::MmioOutput out = efeu::codegen::GenerateMmio(
              std::string(boundary[0]) + "_" + boundary[1], down, up);
          artifacts += out.c_driver + out.vhdl;
        }
      });
    }
    step("codegen.promela", [&] { artifacts += efeu::codegen::GeneratePromela(*comp).Combined(); });
    digest = Fnv1a(artifacts, digest);
    if (counts != nullptr) {
      (*counts)["codegen.bytes"] += static_cast<double>(artifacts.size());
      (*counts)["ir.compiles"] += 1;
      for (const efeu::ir::Module& module : comp->modules()) {
        (*counts)["ir.insts"] += module.CountInsts();
      }
    }
  }
  if (counts != nullptr) {
    (*counts)["analysis.proved"] += proved;
  }
  if (findings != 0) {
    return std::to_string(findings) + " lint/sym finding(s)";
  }
  return Hex(digest) + " " + std::to_string(proved) + "/" + std::to_string(obligations);
}

}  // namespace

Outcome RunSpecBuild(const RunContext& context) {
  Outcome out;
  std::vector<Spec> specs;
  out.setup_s = MedianSetup(5, [&] {
    specs = Specs();
    SeededShuffle(&specs, context.seed, 0);
    // Compile every spec once so the first timed build does not pay for
    // cold code and allocator paths.
    for (const Spec& spec : specs) {
      spec.compile();
    }
  });

  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<std::map<std::string, double>> layer_passes;
  const double loop_start = Now();
  for (int n = 0; n < kMinPasses || Now() - loop_start < context.seconds; ++n) {
    double t0 = Now();
    for (const Spec& spec : specs) {
      const double s0 = Now();
      const std::string got = BuildSpec(spec, nullptr, nullptr);
      out.op_ms.push_back((Now() - s0) * 1e3);
      ++out.attempted;
      out.Check(got == spec.pinned, std::string(spec.name) + " built '" + got + "', pinned '" +
                                        spec.pinned + "'");
    }
    if (!context.trace) {
      out.AddPass(Now() - t0, 1);
      continue;
    }
    untraced_s.push_back(Now() - t0);
    std::map<std::string, double> layers;
    Tracer tracer;
    t0 = Now();
    for (const Spec& spec : specs) {
      BuildSpec(spec, &tracer, &layers);
    }
    traced_s.push_back(Now() - t0);
    tracer.AddSelfSeconds(&layers);
    layers["trace.spans"] = static_cast<double>(tracer.spans().size());
    layer_passes.push_back(std::move(layers));
  }

  if (context.trace) {
    out.layers = MedianLayers(layer_passes);
    out.layers["trace.overhead_share"] = Median(traced_s) / Median(untraced_s) - 1;
    return out;
  }
  char text[64];
  std::snprintf(text, sizeof(text), "build_s %.4f s (%zu specs)", Median(out.pass_seconds),
                specs.size());
  out.notes.push_back(text);
  return out;
}

}  // namespace perfbench
