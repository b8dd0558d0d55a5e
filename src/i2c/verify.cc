#include "src/i2c/verify.h"

#include <atomic>
#include <cassert>
#include <thread>

#include "src/analysis/analysis.h"
#include "src/i2c/codes.h"
#include "src/i2c/electrical.h"
#include "src/i2c/specs/specs.h"
#include "src/i2c/transaction_spec.h"

namespace efeu::i2c {

namespace {

ElectricalEndpoint SymbolEndpoint(const esi::SystemInfo& info, const std::string& symbol_layer) {
  ElectricalEndpoint endpoint;
  endpoint.from_symbol = info.FindChannel(symbol_layer, "Electrical");
  endpoint.to_symbol = info.FindChannel("Electrical", symbol_layer);
  assert(endpoint.from_symbol != nullptr && endpoint.to_symbol != nullptr);
  return endpoint;
}

// Wires a Symbol-layer process to the Electrical combiner.
void WireElectrical(check::CheckedSystem& system, int symbol_proc, int electrical_proc,
                    const ElectricalEndpoint& endpoint) {
  system.ConnectByChannel(symbol_proc, electrical_proc, endpoint.from_symbol);
  system.ConnectByChannel(electrical_proc, symbol_proc, endpoint.to_symbol);
}

std::map<std::string, std::string> CommonDefines(const VerifyConfig& config) {
  std::map<std::string, std::string> defines;
  defines["SYM_VERIF_OPS"] = std::to_string(config.num_ops);
  defines["BYTE_VERIF_OPS"] = std::to_string(config.num_ops);
  defines["TXN_VERIF_OPS"] = std::to_string(config.num_ops);
  defines["EEP_VERIF_OPS"] = std::to_string(config.num_ops);
  if (config.max_len <= 1) {
    defines["TXN_LEN_ONE"] = "1";
    defines["EEP_LEN_ONE"] = "1";
  } else {
    defines["TXN_MAX_LEN"] = std::to_string(config.max_len);
    defines["EEP_MAX_LEN"] = std::to_string(config.max_len);
  }
  defines["EEP_MEM_SIZE"] = std::to_string(config.mem_size);
  defines["EEP_MODEL_SIZE"] = std::to_string(config.mem_size * config.num_eeproms);
  defines["EEP_FIXED_OFFSET"] = "3";
  if (config.num_eeproms > 1) {
    defines["EEP_MULTI"] = "1";
    defines["EEP_NUM_DEVS"] = std::to_string(config.num_eeproms);
  }
  if (config.variable_payload) {
    defines["EEP_VARIABLE_PAYLOAD"] = "1";
  }
  if (config.stretch_input) {
    defines["SYM_STRETCH"] = "1";
  }
  if (config.ks0127_responder) {
    defines["KS0127_VERIF"] = "1";
  }
  if (config.fault_events > 0) {
    defines["EEP_FAULTS"] = "1";
  }
  if (config.reset_events > 0) {
    defines["EEP_RESET"] = "1";
    defines["EEP_RESET_EVENTS"] = std::to_string(config.reset_events);
  }
  return defines;
}

std::unique_ptr<VerifierSystem> BuildSymbolVerifier(const VerifyConfig& config,
                                                    DiagnosticEngine& diag) {
  auto vs = std::make_unique<VerifierSystem>();
  MixOptions mix;
  mix.csymbol = true;
  mix.rsymbol = true;
  mix.verifier = true;
  mix.controller.no_clock_stretching = config.no_clock_stretching;
  mix.defines = CommonDefines(config);
  mix.extra_esi = SymbolOracleEsi();
  mix.extra_esm = SymbolVerifierEsm();
  auto comp = CompileMix(diag, mix);
  if (comp == nullptr) {
    return nullptr;
  }
  const esi::SystemInfo& info = comp->system();
  check::CheckedSystem& sys = vs->system_;

  int glue_c = sys.AddLayer(*comp, "CByte", "input.CByte");
  int glue_r = sys.AddLayer(*comp, "RByte", "observer.RByte");
  int csym = sys.AddLayer(*comp, "CSymbol", "CSymbol");
  int rsym = sys.AddLayer(*comp, "RSymbol", "RSymbol");
  int elec = sys.AddProcess(std::make_unique<ElectricalProcess>(
      SymbolEndpoint(info, "CSymbol"), std::vector<ElectricalEndpoint>{
                                           SymbolEndpoint(info, "RSymbol")}));

  sys.WireAdjacent(info, glue_c, "CByte", csym, "CSymbol");
  sys.WireAdjacent(info, glue_r, "RByte", rsym, "RSymbol");
  WireElectrical(sys, csym, elec, SymbolEndpoint(info, "CSymbol"));
  WireElectrical(sys, rsym, elec, SymbolEndpoint(info, "RSymbol"));
  // Oracle.
  sys.ConnectByChannel(glue_c, glue_r, info.FindChannel("CByte", "RByte"));

  vs->compilations_.push_back(std::move(comp));
  return vs;
}

std::unique_ptr<VerifierSystem> BuildByteVerifier(const VerifyConfig& config,
                                                  DiagnosticEngine& diag) {
  auto vs = std::make_unique<VerifierSystem>();
  MixOptions mix;
  mix.cbyte = true;
  mix.rbyte = true;
  mix.verifier = true;
  mix.controller.no_clock_stretching = config.no_clock_stretching;
  mix.controller.ks0127_compat = config.ks0127_compat_controller;
  mix.responder.ks0127 = config.ks0127_responder;
  mix.defines = CommonDefines(config);
  mix.extra_esi = ByteOracleEsi();
  mix.extra_esm = ByteVerifierEsm();
  if (config.abstraction == VerifyAbstraction::kNone) {
    mix.csymbol = true;
    mix.rsymbol = true;
  } else {
    assert(config.abstraction == VerifyAbstraction::kSymbol);
    mix.extra_esm += SymbolSpecEsm();
  }
  auto comp = CompileMix(diag, mix);
  if (comp == nullptr) {
    return nullptr;
  }
  const esi::SystemInfo& info = comp->system();
  check::CheckedSystem& sys = vs->system_;

  int glue_c = sys.AddLayer(*comp, "CTransaction", "input.CTransaction");
  int glue_r = sys.AddLayer(*comp, "RTransaction", "observer.RTransaction");
  int cbyte = sys.AddLayer(*comp, "CByte", "CByte");
  int rbyte = sys.AddLayer(*comp, "RByte", "RByte");
  sys.WireAdjacent(info, glue_c, "CTransaction", cbyte, "CByte");
  sys.WireAdjacent(info, glue_r, "RTransaction", rbyte, "RByte");
  sys.ConnectByChannel(glue_c, glue_r, info.FindChannel("CTransaction", "RTransaction"));

  if (config.abstraction == VerifyAbstraction::kNone) {
    int csym = sys.AddLayer(*comp, "CSymbol", "CSymbol");
    int rsym = sys.AddLayer(*comp, "RSymbol", "RSymbol");
    int elec = sys.AddProcess(std::make_unique<ElectricalProcess>(
        SymbolEndpoint(info, "CSymbol"), std::vector<ElectricalEndpoint>{
                                             SymbolEndpoint(info, "RSymbol")}));
    sys.WireAdjacent(info, cbyte, "CByte", csym, "CSymbol");
    sys.WireAdjacent(info, rbyte, "RByte", rsym, "RSymbol");
    WireElectrical(sys, csym, elec, SymbolEndpoint(info, "CSymbol"));
    WireElectrical(sys, rsym, elec, SymbolEndpoint(info, "RSymbol"));
  } else {
    int spec = sys.AddLayer(*comp, "Electrical", "spec.Symbol");
    sys.WireAdjacent(info, cbyte, "CByte", spec, "CSymbol");
    sys.WireAdjacent(info, rbyte, "RByte", spec, "RSymbol");
  }

  vs->compilations_.push_back(std::move(comp));
  return vs;
}

std::unique_ptr<VerifierSystem> BuildTransactionVerifier(const VerifyConfig& config,
                                                         DiagnosticEngine& diag) {
  auto vs = std::make_unique<VerifierSystem>();
  MixOptions mix;
  mix.ctransaction = true;
  mix.rtransaction = true;
  mix.verifier = true;
  mix.controller.no_clock_stretching = config.no_clock_stretching;
  mix.controller.ks0127_compat = config.ks0127_compat_controller;
  mix.responder.ks0127 = config.ks0127_responder;
  mix.defines = CommonDefines(config);
  mix.extra_esi = TransactionOracleEsi();
  mix.extra_esm = TransactionVerifierEsm();
  switch (config.abstraction) {
    case VerifyAbstraction::kNone:
      mix.csymbol = true;
      mix.cbyte = true;
      mix.rsymbol = true;
      mix.rbyte = true;
      break;
    case VerifyAbstraction::kSymbol:
      mix.cbyte = true;
      mix.rbyte = true;
      mix.extra_esm += SymbolSpecEsm();
      break;
    case VerifyAbstraction::kByte:
      mix.extra_esm += ByteSpecEsm();
      break;
    default:
      assert(false && "unsupported abstraction for the Transaction verifier");
      return nullptr;
  }
  auto comp = CompileMix(diag, mix);
  if (comp == nullptr) {
    return nullptr;
  }
  const esi::SystemInfo& info = comp->system();
  check::CheckedSystem& sys = vs->system_;

  int glue_c = sys.AddLayer(*comp, "CEepDriver", "input.CEepDriver");
  int glue_r = sys.AddLayer(*comp, "REep", "observer.REep");
  int ctxn = sys.AddLayer(*comp, "CTransaction", "CTransaction");
  int rtxn = sys.AddLayer(*comp, "RTransaction", "RTransaction");
  sys.WireAdjacent(info, glue_c, "CEepDriver", ctxn, "CTransaction");
  sys.WireAdjacent(info, rtxn, "RTransaction", glue_r, "REep");
  sys.ConnectByChannel(glue_c, glue_r, info.FindChannel("CEepDriver", "REep"));

  if (config.abstraction == VerifyAbstraction::kByte) {
    int spec = sys.AddLayer(*comp, "CByte", "spec.Byte");
    sys.WireAdjacent(info, ctxn, "CTransaction", spec, "CByte");
    sys.WireAdjacent(info, rtxn, "RTransaction", spec, "RByte");
  } else {
    int cbyte = sys.AddLayer(*comp, "CByte", "CByte");
    int rbyte = sys.AddLayer(*comp, "RByte", "RByte");
    sys.WireAdjacent(info, ctxn, "CTransaction", cbyte, "CByte");
    sys.WireAdjacent(info, rtxn, "RTransaction", rbyte, "RByte");
    if (config.abstraction == VerifyAbstraction::kNone) {
      int csym = sys.AddLayer(*comp, "CSymbol", "CSymbol");
      int rsym = sys.AddLayer(*comp, "RSymbol", "RSymbol");
      int elec = sys.AddProcess(std::make_unique<ElectricalProcess>(
          SymbolEndpoint(info, "CSymbol"), std::vector<ElectricalEndpoint>{
                                               SymbolEndpoint(info, "RSymbol")}));
      sys.WireAdjacent(info, cbyte, "CByte", csym, "CSymbol");
      sys.WireAdjacent(info, rbyte, "RByte", rsym, "RSymbol");
      WireElectrical(sys, csym, elec, SymbolEndpoint(info, "CSymbol"));
      WireElectrical(sys, rsym, elec, SymbolEndpoint(info, "RSymbol"));
    } else {
      int spec = sys.AddLayer(*comp, "Electrical", "spec.Symbol");
      sys.WireAdjacent(info, cbyte, "CByte", spec, "CSymbol");
      sys.WireAdjacent(info, rbyte, "RByte", spec, "RSymbol");
    }
  }

  vs->compilations_.push_back(std::move(comp));
  return vs;
}

std::unique_ptr<VerifierSystem> BuildEepVerifier(const VerifyConfig& config,
                                                 DiagnosticEngine& diag) {
  auto vs = std::make_unique<VerifierSystem>();
  check::CheckedSystem& sys = vs->system_;

  if (config.abstraction == VerifyAbstraction::kTransaction) {
    // Glue + CEepDriver + K instances of REep bridged by the native
    // Transaction behaviour spec.
    MixOptions mix;
    mix.ceepdriver = true;
    mix.reep = true;
    mix.verifier = true;
    mix.defines = CommonDefines(config);
    mix.responder.mem_size = config.mem_size;
    mix.extra_esm = EepVerifierEsm();
    auto comp = CompileMix(diag, mix);
    if (comp == nullptr) {
      return nullptr;
    }
    const esi::SystemInfo& info = comp->system();
    int glue = sys.AddLayer(*comp, "CWorld", "input.CWorld");
    int ced = sys.AddLayer(*comp, "CEepDriver", "CEepDriver");
    sys.WireAdjacent(info, glue, "CWorld", ced, "CEepDriver");

    std::vector<TransactionSpecDevice> devices;
    std::vector<int> eeps;
    for (int k = 0; k < config.num_eeproms; ++k) {
      eeps.push_back(sys.AddLayer(*comp, "REep", "REep." + std::to_string(k)));
      TransactionSpecDevice device;
      device.to_eep = info.FindChannel("RTransaction", "REep");
      device.from_eep = info.FindChannel("REep", "RTransaction");
      device.address = kEepBaseAddress + k;
      devices.push_back(device);
    }
    int spec = sys.AddProcess(std::make_unique<TransactionSpecProcess>(
        info.FindChannel("CEepDriver", "CTransaction"),
        info.FindChannel("CTransaction", "CEepDriver"), devices, config.fault_events,
        config.reset_events));
    sys.WireAdjacent(info, ced, "CEepDriver", spec, "CTransaction");
    for (int k = 0; k < config.num_eeproms; ++k) {
      sys.ConnectByChannel(spec, eeps[k], info.FindChannel("RTransaction", "REep"));
      sys.ConnectByChannel(eeps[k], spec, info.FindChannel("REep", "RTransaction"));
    }
    vs->compilations_.push_back(std::move(comp));
    return vs;
  }

  if (config.abstraction != VerifyAbstraction::kNone) {
    // Symbol/Byte abstraction: single-responder, single compilation.
    assert(config.num_eeproms == 1 && "abstractions other than Transaction are single-EEPROM");
    MixOptions mix;
    mix.ceepdriver = true;
    mix.ctransaction = true;
    mix.rtransaction = true;
    mix.reep = true;
    mix.verifier = true;
    mix.controller.no_clock_stretching = config.no_clock_stretching;
    mix.controller.ks0127_compat = config.ks0127_compat_controller;
    mix.responder.ks0127 = config.ks0127_responder;
    mix.responder.mem_size = config.mem_size;
    mix.defines = CommonDefines(config);
    mix.extra_esm = EepVerifierEsm();
    if (config.abstraction == VerifyAbstraction::kSymbol) {
      mix.cbyte = true;
      mix.rbyte = true;
      mix.extra_esm += SymbolSpecEsm();
    } else {
      mix.extra_esm += ByteSpecEsm();
    }
    auto comp = CompileMix(diag, mix);
    if (comp == nullptr) {
      return nullptr;
    }
    const esi::SystemInfo& info = comp->system();
    int glue = sys.AddLayer(*comp, "CWorld", "input.CWorld");
    int ced = sys.AddLayer(*comp, "CEepDriver", "CEepDriver");
    int ctxn = sys.AddLayer(*comp, "CTransaction", "CTransaction");
    int rtxn = sys.AddLayer(*comp, "RTransaction", "RTransaction");
    int reep = sys.AddLayer(*comp, "REep", "REep");
    sys.WireAdjacent(info, glue, "CWorld", ced, "CEepDriver");
    sys.WireAdjacent(info, ced, "CEepDriver", ctxn, "CTransaction");
    sys.WireAdjacent(info, rtxn, "RTransaction", reep, "REep");
    if (config.abstraction == VerifyAbstraction::kSymbol) {
      int cbyte = sys.AddLayer(*comp, "CByte", "CByte");
      int rbyte = sys.AddLayer(*comp, "RByte", "RByte");
      int spec = sys.AddLayer(*comp, "Electrical", "spec.Symbol");
      sys.WireAdjacent(info, ctxn, "CTransaction", cbyte, "CByte");
      sys.WireAdjacent(info, rtxn, "RTransaction", rbyte, "RByte");
      sys.WireAdjacent(info, cbyte, "CByte", spec, "CSymbol");
      sys.WireAdjacent(info, rbyte, "RByte", spec, "RSymbol");
    } else {
      int spec = sys.AddLayer(*comp, "CByte", "spec.Byte");
      sys.WireAdjacent(info, ctxn, "CTransaction", spec, "CByte");
      sys.WireAdjacent(info, rtxn, "RTransaction", spec, "RByte");
    }
    vs->compilations_.push_back(std::move(comp));
    return vs;
  }

  // Full stack. The controller side (with the CWorld input space) is one
  // compilation; each EEPROM responder stack is its own compilation so its
  // bus address macro can differ; the native Electrical combiner connects
  // them all.
  MixOptions cmix;
  cmix.csymbol = true;
  cmix.cbyte = true;
  cmix.ctransaction = true;
  cmix.ceepdriver = true;
  cmix.verifier = true;
  cmix.controller.no_clock_stretching = config.no_clock_stretching;
  cmix.controller.ks0127_compat = config.ks0127_compat_controller;
  cmix.defines = CommonDefines(config);
  cmix.extra_esm = EepVerifierEsm();
  auto ccomp = CompileMix(diag, cmix);
  if (ccomp == nullptr) {
    return nullptr;
  }
  const esi::SystemInfo& cinfo = ccomp->system();
  int glue = sys.AddLayer(*ccomp, "CWorld", "input.CWorld");
  int ced = sys.AddLayer(*ccomp, "CEepDriver", "CEepDriver");
  int ctxn = sys.AddLayer(*ccomp, "CTransaction", "CTransaction");
  int cbyte = sys.AddLayer(*ccomp, "CByte", "CByte");
  int csym = sys.AddLayer(*ccomp, "CSymbol", "CSymbol");
  sys.WireAdjacent(cinfo, glue, "CWorld", ced, "CEepDriver");
  sys.WireAdjacent(cinfo, ced, "CEepDriver", ctxn, "CTransaction");
  sys.WireAdjacent(cinfo, ctxn, "CTransaction", cbyte, "CByte");
  sys.WireAdjacent(cinfo, cbyte, "CByte", csym, "CSymbol");

  std::vector<ElectricalEndpoint> responder_endpoints;
  std::vector<int> rsyms;
  for (int k = 0; k < config.num_eeproms; ++k) {
    ResponderStackOptions ropts;
    ropts.address = kEepBaseAddress + k;
    ropts.mem_size = config.mem_size;
    ropts.ks0127 = config.ks0127_responder;
    auto rcomp = CompileResponderStack(diag, ropts);
    if (rcomp == nullptr) {
      return nullptr;
    }
    const esi::SystemInfo& rinfo = rcomp->system();
    std::string suffix = "." + std::to_string(k);
    int rsym = sys.AddLayer(*rcomp, "RSymbol", "RSymbol" + suffix);
    int rbyte = sys.AddLayer(*rcomp, "RByte", "RByte" + suffix);
    int rtxn = sys.AddLayer(*rcomp, "RTransaction", "RTransaction" + suffix);
    int reep = sys.AddLayer(*rcomp, "REep", "REep" + suffix);
    sys.WireAdjacent(rinfo, rbyte, "RByte", rsym, "RSymbol");
    sys.WireAdjacent(rinfo, rtxn, "RTransaction", rbyte, "RByte");
    sys.WireAdjacent(rinfo, rtxn, "RTransaction", reep, "REep");
    responder_endpoints.push_back(SymbolEndpoint(rinfo, "RSymbol"));
    rsyms.push_back(rsym);
    vs->compilations_.push_back(std::move(rcomp));
  }

  int elec = sys.AddProcess(std::make_unique<ElectricalProcess>(SymbolEndpoint(cinfo, "CSymbol"),
                                                                responder_endpoints));
  WireElectrical(sys, csym, elec, SymbolEndpoint(cinfo, "CSymbol"));
  for (size_t k = 0; k < rsyms.size(); ++k) {
    WireElectrical(sys, rsyms[k], elec, responder_endpoints[k]);
  }
  vs->compilations_.push_back(std::move(ccomp));
  return vs;
}

}  // namespace

std::unique_ptr<VerifierSystem> BuildVerifier(const VerifyConfig& config,
                                              DiagnosticEngine& diag) {
  assert((config.fault_events == 0 ||
          (config.level == VerifyLevel::kEepDriver &&
           config.abstraction == VerifyAbstraction::kTransaction)) &&
         "fault_events needs the EepDriver verifier with the Transaction abstraction");
  assert((config.reset_events == 0 ||
          (config.level == VerifyLevel::kEepDriver &&
           config.abstraction == VerifyAbstraction::kTransaction)) &&
         "reset_events needs the EepDriver verifier with the Transaction abstraction");
  std::unique_ptr<VerifierSystem> vs;
  switch (config.level) {
    case VerifyLevel::kSymbol:
      assert(config.abstraction == VerifyAbstraction::kNone);
      vs = BuildSymbolVerifier(config, diag);
      break;
    case VerifyLevel::kByte:
      vs = BuildByteVerifier(config, diag);
      break;
    case VerifyLevel::kTransaction:
      vs = BuildTransactionVerifier(config, diag);
      break;
    case VerifyLevel::kEepDriver:
      vs = BuildEepVerifier(config, diag);
      break;
  }
  if (vs != nullptr && config.analyze_before_check) {
    for (const auto& comp : vs->compilations_) {
      analysis::AnalysisResult lint = analysis::AnalyzeCompilation(*comp, diag, {});
      if (!lint.ok()) {
        return nullptr;
      }
    }
  }
  return vs;
}

VerifyRunResult RunVerification(const VerifyConfig& config, DiagnosticEngine& diag,
                                const check::CheckerOptions& base_options) {
  VerifyRunResult result;
  auto vs = BuildVerifier(config, diag);
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

std::vector<VerifySuiteItem> RunVerificationSuite(const std::vector<VerifyConfig>& configs,
                                                  const check::CheckerOptions& base_options,
                                                  int pool_threads) {
  std::vector<VerifySuiteItem> items(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    items[i].config = configs[i];
  }
  int workers = pool_threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) {
      workers = 1;
    }
  }
  if (workers > static_cast<int>(items.size())) {
    workers = static_cast<int>(items.size());
  }

  std::atomic<size_t> next{0};
  auto run = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) {
        return;
      }
      DiagnosticEngine diag;
      items[i].result = RunVerification(items[i].config, diag, base_options);
      if (diag.HasErrors()) {
        items[i].error = diag.RenderAll();
      }
    }
  };

  if (workers <= 1) {
    run();
    return items;
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back(run);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return items;
}

}  // namespace efeu::i2c
