#include "src/spi/verify.h"

#include "src/analysis/analysis.h"
#include "src/spi/specs.h"

namespace efeu::spi {

std::unique_ptr<SpiVerifierSystem> BuildSpiVerifier(const SpiVerifyConfig& config,
                                                    DiagnosticEngine& diag) {
  auto vs = std::make_unique<SpiVerifierSystem>();

  std::string esm;
  if (config.mode1_controller) {
    esm += "#define SPI_MODE1 1\n";
  }
  esm += SpSymbolEsm();
  esm += SpByteEsm();
  esm += SpElectricalEsm();
  esm += SpRSymbolEsm();
  esm += SpRByteEsm();

  ir::CompileOptions options;
  options.allow_nondet = true;
  options.defines["SPI_VERIF_OPS"] = std::to_string(config.num_ops);

  std::string esi = SpiEsi();
  if (config.level == SpiVerifyLevel::kByte) {
    esi += SpiOracleEsi();
    esm += SpByteVerifierEsm();  // glue SpDriver + SpRegs
  } else {
    esm += SpDriverEsm();
    esm += SpRegsEsm();
    esm += SpDriverVerifierEsm();  // glue SpWorld
  }

  vs->compilation_ = ir::Compile(esi, esm, diag, options);
  if (vs->compilation_ == nullptr) {
    return nullptr;
  }
  if (config.analyze_before_check) {
    analysis::AnalysisResult lint = analysis::AnalyzeCompilation(*vs->compilation_, diag, {});
    if (!lint.ok()) {
      return nullptr;
    }
  }
  const ir::Compilation& comp = *vs->compilation_;
  const esi::SystemInfo& info = comp.system();
  check::CheckedSystem& sys = vs->system_;

  int sbyte = sys.AddLayer(comp, "SpByte", "SpByte");
  int ssym = sys.AddLayer(comp, "SpSymbol", "SpSymbol");
  int elec = sys.AddLayer(comp, "SpElectrical", "SpElectrical");
  int rsym = sys.AddLayer(comp, "SpRSymbol", "SpRSymbol");
  int rbyte = sys.AddLayer(comp, "SpRByte", "SpRByte");

  sys.WireAdjacent(info, sbyte, "SpByte", ssym, "SpSymbol");
  sys.WireAdjacent(info, ssym, "SpSymbol", elec, "SpElectrical");
  sys.WireAdjacent(info, rsym, "SpRSymbol", elec, "SpElectrical");
  sys.WireAdjacent(info, rbyte, "SpRByte", rsym, "SpRSymbol");

  if (config.level == SpiVerifyLevel::kByte) {
    int glue_d = sys.AddLayer(comp, "SpDriver", "input.SpDriver");
    int glue_r = sys.AddLayer(comp, "SpRegs", "observer.SpRegs");
    sys.WireAdjacent(info, glue_d, "SpDriver", sbyte, "SpByte");
    sys.WireAdjacent(info, glue_r, "SpRegs", rbyte, "SpRByte");
    sys.ConnectByChannel(glue_d, glue_r, info.FindChannel("SpDriver", "SpRegs"));
  } else {
    int driver = sys.AddLayer(comp, "SpDriver", "SpDriver");
    int regs = sys.AddLayer(comp, "SpRegs", "SpRegs");
    int glue = sys.AddLayer(comp, "SpWorld", "input.SpWorld");
    sys.WireAdjacent(info, glue, "SpWorld", driver, "SpDriver");
    sys.WireAdjacent(info, driver, "SpDriver", sbyte, "SpByte");
    sys.WireAdjacent(info, regs, "SpRegs", rbyte, "SpRByte");
  }
  return vs;
}

SpiVerifyResult RunSpiVerification(const SpiVerifyConfig& config, DiagnosticEngine& diag,
                                   const check::CheckerOptions& base_options) {
  SpiVerifyResult result;
  auto vs = BuildSpiVerifier(config, diag);
  if (vs == nullptr) {
    return result;
  }
  check::CheckerOptions safety = base_options;
  safety.check_deadlock = true;
  safety.check_livelock = false;
  result.safety = vs->system().Check(safety);
  check::CheckerOptions liveness = base_options;
  liveness.check_deadlock = false;
  liveness.check_livelock = true;
  result.liveness = vs->system().Check(liveness);
  result.total_seconds = result.safety.seconds + result.liveness.seconds;
  result.ok = result.safety.ok && result.liveness.ok;
  return result;
}

}  // namespace efeu::spi
