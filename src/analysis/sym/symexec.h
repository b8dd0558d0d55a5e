// esmsym: path-based symbolic execution over the lowered IR.
//
// The executor walks a module's CFG with an abstract frame (one SymVal cell
// per int32 frame slot, each carrying the expression that computed it),
// merging states at join points (reusing src/analysis/cfg for structure) and
// widening loop heads, so exploration always terminates. Branches are
// decided by the path-condition solver; a decided branch propagates to one
// successor only, and an undecided one propagates *refined* stores to both
// (each arm learns the leaf valuations that can reach it). Nondet choices —
// including the checker's fault/reset choices (VerifyConfig::fault_events /
// reset_events surface as kNondet) — become exact value sets, so one
// converged summary covers every N-fault schedule instead of one explicit
// state per schedule.
//
// Channel I/O is a symbolic rendezvous: kRecv draws per-word facts for the
// port's channel (computed sender summaries for in-compilation senders,
// assumed ESI contract ranges for external senders — the same ranges
// monitor::MonitorSpec::FromSystem derives), and kSend folds the staged words
// into the module's send summary. AnalyzeCompilationSym runs every module in
// rounds against the previous round's facts until the facts stop changing or
// a fixed round cap (3) is reached (assume-guarantee: the seed
// over-approximates every real message, and the transfer is monotone, so
// each round's summaries stay sound and the cap costs only precision). A
// module whose receive facts did not change since its last run reuses that
// run's summary.
//
// The proof obligations tracked per module are exactly the executor's
// failure points: kAssert conditions, division/modulo divisors, and
// kLoadIdx/kStoreIdx index bounds. A module whose every obligation is proved
// without assumed facts cannot fail a safety check on any schedule — the
// basis for the monitor-bound discharge.

#ifndef SRC_ANALYSIS_SYM_SYMEXEC_H_
#define SRC_ANALYSIS_SYM_SYMEXEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/sym/domain.h"
#include "src/esi/system_info.h"
#include "src/ir/compile.h"
#include "src/ir/ir.h"
#include "src/support/source_location.h"

namespace efeu::analysis::sym {

// How to seed facts for channels whose sender is outside the compilation.
enum class ExternalFacts {
  // The ESI contract ranges (enum ordinals, storage ranges). These are an
  // *assumption* about the external world — nothing compiled here enforces
  // them — so every derived value carries the assumed taint and unsound
  // consumers (lint, discharge) ignore those proofs.
  kContract,
  // No assumption at all: external words are unconstrained int32. The
  // differential-fuzz cross-check uses this (fuzz stimuli are raw words).
  kTop,
};

struct SymOptions {
  ExternalFacts external_facts = ExternalFacts::kContract;
  // Global block-visit budget; exceeding it marks the summary incomplete
  // (every obligation then stays unproved).
  uint64_t max_block_visits = 20000;
};

// One proof obligation site (a point where the executor can fail).
struct SiteVerdict {
  enum class Kind {
    kAssert,   // kAssert condition must be nonzero
    kDivisor,  // kBinOp div/mod divisor must be nonzero
    kIndex,    // kLoadIdx/kStoreIdx index must be in [0, bound)
  };
  Kind kind = Kind::kAssert;
  int block = 0;
  int inst_index = 0;
  SourceLocation loc;
  // Holds for every admitted valuation at the converged state.
  bool proved = false;
  // The proof leans on an assumed external contract.
  bool assumed = false;
  // kAssert only: nonzero for every value the leaf *storage types* admit —
  // the assert is vacuous (the assert-always-true lint rule).
  bool tautology = false;
  // Fails for every admitted valuation (definite bug if reachable).
  bool always_fails = false;
  // Rendered abstract value of the condition / divisor / index.
  std::string value;
};

// A branch with at least one statically infeasible arm.
struct BranchInfo {
  int block = 0;
  int inst_index = 0;
  SourceLocation loc;
  bool true_infeasible = false;
  bool false_infeasible = false;
  // The infeasibility proof leans on an assumed external contract.
  bool assumed = false;
  // The dead arm already follows from the leaf storage types alone: it is
  // dead against ANY contract-honoring peer, not just the peers this
  // compilation happens to pair the module with. Only these are lint
  // findings; peer-derived dead arms are configuration facts (visible in
  // --dump-sym) rather than spec defects.
  bool from_types = false;
};

// Per-word join of everything a module may send on one port.
struct PortFacts {
  int port = 0;
  std::vector<SymVal> words;
};

struct ModuleSummary {
  std::string layer;
  // Exploration converged within budget; false leaves all sites unproved.
  bool complete = true;
  std::vector<SiteVerdict> sites;
  std::vector<BranchInfo> infeasible_branches;
  std::vector<PortFacts> send_facts;

  // Exploration statistics ("paths" counts terminated path segments: halts,
  // merges into already-covered states, definite failures).
  uint64_t paths = 0;
  uint64_t merges = 0;
  uint64_t widenings = 0;
  uint64_t blocks_visited = 0;
  uint64_t solver_queries = 0;
  uint64_t solver_enumerations = 0;
  uint64_t solver_combos = 0;
  double seconds = 0;

  // Every obligation proved (complete exploration). `*any_assumed` reports
  // whether any proof used an assumed contract.
  bool AllProved(bool* any_assumed = nullptr) const;
};

// Facts per channel: one SymVal per flat message word.
using ChannelFacts = std::map<const esi::ChannelInfo*, std::vector<SymVal>>;

// Symbolically executes one module under the given per-channel recv facts.
ModuleSummary AnalyzeModuleSym(const ir::Module& module, const ChannelFacts& facts,
                               const SymOptions& options = {});

struct CompilationSummary {
  // The final round's summary of every module, in compilation order.
  std::vector<ModuleSummary> modules;
  int rounds = 0;
  // Executor runs across all rounds; at most rounds * modules.size(), fewer
  // when a module's receive facts repeat and its last summary is reused.
  int module_runs = 0;
  // Wall time of the whole call. A reused ModuleSummary keeps the `seconds`
  // of the run that produced it.
  double seconds = 0;

  bool AllProved(bool* any_assumed = nullptr) const;
  uint64_t TotalPaths() const;
  uint64_t TotalSolverQueries() const;
};

// Runs the assume-guarantee iteration over every module of a compilation.
CompilationSummary AnalyzeCompilationSym(const ir::Compilation& comp,
                                         const SymOptions& options = {});

// Deterministic human-readable rendering (goldens, esmc --dump-sym).
std::string RenderSymSummary(const ir::Compilation& comp, const CompilationSummary& summary);

}  // namespace efeu::analysis::sym

#endif  // SRC_ANALYSIS_SYM_SYMEXEC_H_
