// Tier-1 slice of the fuzz subsystem: generator determinism and acceptance,
// bounded four-way differential smoke runs (fixed seeds, seconds not hours),
// minimizer behaviour, corpus replay, the esmc exit-code contract, and named
// regression tests for the C-backend bugs the fuzzer found. The open-ended
// nightly campaign lives in CI (`esmfuzz --iterations 500 ...`), not here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fuzz/corpus.h"
#include "src/fuzz/differential.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/minimize.h"
#include "src/fuzz/mutator.h"
#include "src/fuzz/rng.h"

namespace efeu::fuzz {
namespace {

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(FuzzGenerator, SameSeedIsByteIdentical) {
  for (uint64_t seed : {1u, 7u, 42u, 20260808u, 999999u}) {
    SpecModel a = GenerateSpec(seed);
    SpecModel b = GenerateSpec(seed);
    EXPECT_EQ(a.RenderEsi(), b.RenderEsi()) << "seed " << seed;
    EXPECT_EQ(a.RenderEsm(), b.RenderEsm()) << "seed " << seed;
    EXPECT_EQ(a.stimuli, b.stimuli) << "seed " << seed;
  }
}

TEST(FuzzGenerator, DifferentSeedsDiffer) {
  // Not a hard guarantee for any single pair, but over five seeds at least
  // one body must differ or the generator is ignoring its seed.
  std::vector<std::string> bodies;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    bodies.push_back(GenerateSpec(seed).RenderEsm());
  }
  bool any_differ = false;
  for (size_t i = 1; i < bodies.size(); ++i) {
    any_differ = any_differ || bodies[i] != bodies[0];
  }
  EXPECT_TRUE(any_differ);
}

TEST(FuzzGenerator, GeneratedSpecsAreAlwaysAccepted) {
  // Well-typed by construction: the frontend must accept every generated
  // spec. Runs without the C target to stay fast.
  DifferentialOptions options;
  options.run_c = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SpecModel model = GenerateSpec(seed);
    DifferentialResult result = RunDifferential(model, options);
    EXPECT_TRUE(result.accepted) << "seed " << seed << ": " << result.reject_reason;
  }
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

// The RTL leg runs twice, per edge and skipping idle edges, and the two must
// agree cycle for cycle (a divergence fails `agree`). The skipping run must
// really skip, or the comparison proves nothing. Seeds 300-329 include runs
// that fail, where the checker must fail at the VM's step.
TEST(FuzzDifferential, CheckerVmRtlAgreeOnFixedSeeds) {
  DifferentialOptions options;
  options.run_c = false;
  uint64_t rtl_cycles = 0;
  uint64_t rtl_ticked = 0;
  for (const auto& [first, last] : {std::pair<uint64_t, uint64_t>{100, 140}, {300, 330}}) {
    for (uint64_t seed = first; seed < last; ++seed) {
      DifferentialResult result = RunDifferential(GenerateSpec(seed), options);
      ASSERT_TRUE(result.accepted) << "seed " << seed << ": " << result.reject_reason;
      EXPECT_TRUE(result.agree) << "seed " << seed << ": " << result.divergence;
      rtl_cycles += result.rtl_cycles;
      rtl_ticked += result.rtl_cycles_ticked;
    }
  }
  EXPECT_GT(rtl_cycles, 0u);
  EXPECT_LT(rtl_ticked, rtl_cycles);
}

// The symbolic executor rides every differential run too (run_sym defaults
// on, with unconstrained external words): when it proves EVERY obligation of
// a spec, no schedule may fail, so a failing execution target would be an
// executor soundness bug. This pins a fixed-seed slice where the cross-check
// must hold and must actually engage (obligations counted, some fully
// proved) — a slice where sym never ran would make the guarantee vacuous.
TEST(FuzzDifferential, SymVerdictsAgreeWithExecutionOnFixedSeeds) {
  DifferentialOptions options;
  options.run_c = false;
  int total_obligations = 0;
  int fully_proved_specs = 0;
  for (uint64_t seed = 400; seed < 440; ++seed) {
    DifferentialResult result = RunDifferential(GenerateSpec(seed), options);
    ASSERT_TRUE(result.accepted) << "seed " << seed << ": " << result.reject_reason;
    EXPECT_TRUE(result.sym_ran) << "seed " << seed;
    EXPECT_TRUE(result.sym_consistent) << "seed " << seed << ": " << result.sym_error;
    total_obligations += result.sym_obligations;
    fully_proved_specs += result.sym_all_proved ? 1 : 0;
  }
  EXPECT_GT(total_obligations, 0);
  EXPECT_GT(fully_proved_specs, 0);
}

TEST(FuzzDifferential, GeneratedCAgreesOnFixedSeeds) {
  if (!HaveCCompiler()) {
    GTEST_SKIP() << "no C compiler on PATH";
  }
  for (uint64_t seed = 200; seed < 210; ++seed) {
    DifferentialResult result = RunDifferential(GenerateSpec(seed));
    ASSERT_TRUE(result.accepted) << "seed " << seed << ": " << result.reject_reason;
    EXPECT_TRUE(result.agree) << "seed " << seed << ": " << result.divergence;
    if (result.vm.verdict == Verdict::kOk) {
      EXPECT_TRUE(result.c_ran) << "seed " << seed;
    }
  }
}

TEST(FuzzDifferential, VerdictIsDeterministicAcrossRuns) {
  DifferentialOptions options;
  options.run_c = false;
  for (uint64_t seed : {11u, 23u, 307u, 5001u}) {
    SpecModel model = GenerateSpec(seed);
    DifferentialResult first = RunDifferential(model, options);
    DifferentialResult second = RunDifferential(model, options);
    ASSERT_TRUE(first.accepted) << "seed " << seed;
    EXPECT_EQ(first.vm.verdict, second.vm.verdict) << "seed " << seed;
    EXPECT_EQ(first.vm.replies, second.vm.replies) << "seed " << seed;
    EXPECT_EQ(first.agree, second.agree) << "seed " << seed;
    EXPECT_EQ(first.divergence, second.divergence) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(FuzzMinimize, ShrinksWhilePreservingTheOracle) {
  DifferentialOptions options;
  options.run_c = false;
  // Oracle: the spec still runs and all no-C targets still agree — a stand-in
  // for "still reproduces the divergence" that lets the test exercise every
  // reduction pass without needing a live compiler bug.
  MinimizeOracle oracle = [&](const SpecModel& candidate) {
    DifferentialResult r = RunDifferential(candidate, options);
    return r.accepted && r.agree;
  };
  SpecModel base = GenerateSpec(31337);
  ASSERT_TRUE(oracle(base));
  MinimizeStats stats;
  SpecModel reduced = Minimize(base, oracle, MinimizeOptions{}, &stats);
  EXPECT_GT(stats.attempts, 0);
  EXPECT_TRUE(oracle(reduced));
  EXPECT_LE(reduced.stimuli.size(), base.stimuli.size());
  // The schedule-shrinking pass alone guarantees a single-step schedule here.
  EXPECT_EQ(reduced.stimuli.size(), 1u);
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(FuzzCorpus, SerializeRoundTrips) {
  SpecModel model = GenerateSpec(77);
  CorpusEntry entry = EntryFromModel(model, "round trip\nsecond line");
  std::string text = SerializeEntry(entry);
  CorpusEntry parsed;
  std::string error;
  ASSERT_TRUE(ParseEntry(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seed, entry.seed);
  EXPECT_EQ(parsed.note, entry.note);
  EXPECT_EQ(parsed.esi, entry.esi);
  EXPECT_EQ(parsed.esm, entry.esm);
  EXPECT_EQ(parsed.stimuli, entry.stimuli);
}

// Replays every committed corpus entry (seed specs and minimized repros of
// fixed bugs) through the full differential harness.
TEST(FuzzCorpus, FuzzCorpusReplay) {
  std::vector<CorpusEntry> entries;
  std::string error;
  ASSERT_TRUE(LoadCorpusDir(EFEU_FUZZ_CORPUS_DIR, &entries, &error)) << error;
  ASSERT_GE(entries.size(), 8u);
  DifferentialOptions options;
  options.run_c = HaveCCompiler();
  for (const CorpusEntry& entry : entries) {
    DifferentialResult result =
        RunDifferential(entry.esi, entry.esm, entry.stimuli, options);
    ASSERT_TRUE(result.accepted) << entry.name << ": " << result.reject_reason;
    EXPECT_TRUE(result.agree) << entry.name << ": " << result.divergence;
    if (result.vm.verdict == Verdict::kOk) {
      // The skipping RTL run at least jumps the idle drain after the last
      // reply, so it ticks fewer edges than the per-edge run it matched.
      EXPECT_LT(result.rtl_cycles_ticked, result.rtl_cycles) << entry.name;
    }
    // Every committed repro also replays through the symbolic soundness
    // cross-check: a corpus entry that once exposed an executor bug must
    // keep exposing it.
    EXPECT_TRUE(result.sym_ran) << entry.name;
    EXPECT_TRUE(result.sym_consistent) << entry.name << ": " << result.sym_error;
  }
}

// ---------------------------------------------------------------------------
// Named regressions for fuzzer-found C-backend bugs. Each replays the
// minimized repro the campaign dumped when it first caught the bug.
// ---------------------------------------------------------------------------

DifferentialResult ReplayCorpusEntry(const std::string& name) {
  CorpusEntry entry;
  std::string error;
  std::string path = std::string(EFEU_FUZZ_CORPUS_DIR) + "/" + name;
  EXPECT_TRUE(LoadEntryFile(path, &entry, &error)) << path << ": " << error;
  return RunDifferential(entry.esi, entry.esm, entry.stimuli);
}

// The C arg staging used to emit `dest.f = (bit)(expr)` for bit fields: an
// unsigned char cast, so 138 stayed 138 where every interpreter stores 1.
TEST(FuzzRegression, CBackendBitArgStagingTruncates) {
  if (!HaveCCompiler()) {
    GTEST_SKIP() << "no C compiler on PATH";
  }
  DifferentialResult result = ReplayCorpusEntry("cbackend_bit_arg_staging.efz");
  ASSERT_TRUE(result.accepted) << result.reject_reason;
  EXPECT_TRUE(result.c_ran);
  EXPECT_TRUE(result.agree) << result.divergence;
}

// Assignments into bit-typed locals used to store the raw value, so the
// generated range assert `v >= 0 && v <= 1` fired in C only.
TEST(FuzzRegression, CBackendBitLocalAssignmentTruncates) {
  if (!HaveCCompiler()) {
    GTEST_SKIP() << "no C compiler on PATH";
  }
  DifferentialResult result = ReplayCorpusEntry("cbackend_bit_local_assignment.efz");
  ASSERT_TRUE(result.accepted) << result.reject_reason;
  EXPECT_TRUE(result.agree) << result.divergence;
}

// C gives an all-non-negative enum an unsigned underlying type, so
// `cmd.c0 - r.r0` went unsigned and flipped a >= comparison; enum reads now
// print through an (int) cast.
TEST(FuzzRegression, CBackendEnumArithmeticIsSigned) {
  if (!HaveCCompiler()) {
    GTEST_SKIP() << "no C compiler on PATH";
  }
  DifferentialResult result = ReplayCorpusEntry("cbackend_enum_signedness.efz");
  ASSERT_TRUE(result.accepted) << result.reject_reason;
  EXPECT_TRUE(result.c_ran);
  EXPECT_TRUE(result.agree) << result.divergence;
}

// The Verilog backend emitted a handshake segment's plain instructions above
// the valid/ready if-else, so they re-ran on every wait cycle: `v0 = 14 + v0`
// before a talk incremented once per cycle the peer held ready low. The RTL
// simulator mirrored the bug. Body now runs once, on the first-entry cycle.
// These run without the C target: the divergence is RTL vs VM/checker.
TEST(FuzzRegression, RtlHandshakeBodyRunsOncePerSend) {
  DifferentialResult result = ReplayCorpusEntry("verilog_send_wait_reexec.efz");
  ASSERT_TRUE(result.accepted) << result.reject_reason;
  EXPECT_TRUE(result.agree) << result.divergence;
}

// Same re-execution bug observed through final variables instead of channel
// traffic, with back-to-back talks to two peer layers.
TEST(FuzzRegression, RtlHandshakeBodyRunsOnceAcrossBackToBackTalks) {
  DifferentialResult result = ReplayCorpusEntry("verilog_handshake_body_once.efz");
  ASSERT_TRUE(result.accepted) << result.reject_reason;
  EXPECT_TRUE(result.agree) << result.divergence;
}

// ---------------------------------------------------------------------------
// Campaign smoke + determinism
// ---------------------------------------------------------------------------

TEST(FuzzCampaign, FixedSeedSmokeIsCleanAndDeterministic) {
  FuzzOptions options;
  options.seed = 7;
  options.iterations = 30;
  options.differential.run_c = false;  // keep the tier-1 slice in seconds
  std::ostringstream log_a;
  FuzzStats a = RunFuzzCampaign(options, &log_a);
  EXPECT_EQ(a.generated, 30);
  EXPECT_EQ(a.accepted, 30);
  EXPECT_EQ(a.divergences, 0) << log_a.str();

  std::ostringstream log_b;
  FuzzStats b = RunFuzzCampaign(options, &log_b);
  EXPECT_EQ(a.vm_ok, b.vm_ok);
  EXPECT_EQ(a.vm_assert, b.vm_assert);
  EXPECT_EQ(a.vm_error, b.vm_error);
  EXPECT_EQ(a.vm_stuck, b.vm_stuck);
  EXPECT_EQ(a.divergence_signatures, b.divergence_signatures);
}

TEST(FuzzCampaign, FrontendSurvivesCorruptedText) {
  // Corrupted renderings must produce diagnostics or compile — never crash.
  RunFrontendRobustness(/*seed=*/99, /*iterations=*/60, nullptr);
}

TEST(FuzzMutator, MutatedModelsStillRenderAndRun) {
  DifferentialOptions options;
  options.run_c = false;
  Rng rng(4242);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    SpecModel base = GenerateSpec(500 + i);
    SpecModel mutant = MutateModel(base, rng);
    DifferentialResult result = RunDifferential(mutant, options);
    if (result.accepted) {
      ++accepted;
      EXPECT_TRUE(result.agree) << "mutant of seed " << (500 + i) << ": "
                                << result.divergence;
    }
  }
  // Mutations may step outside the language, but most must survive.
  EXPECT_GE(accepted, 10);
}

// ---------------------------------------------------------------------------
// esmc exit-code contract: 0 success, 1 file read error, 2 usage or
// parse/sema error, 3 lint findings at error severity — across emit modes.
// ---------------------------------------------------------------------------

class EsmcExitCodes : public ::testing::Test {
 protected:
  static void WriteText(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
    ASSERT_TRUE(out.good()) << path;
  }

  void SetUp() override {
    // One directory per test: ctest runs these tests as concurrent processes,
    // and a shared directory let one test's SetUp rewrite another's inputs.
    dir_ = ::testing::TempDir() + "/esmc_exit_codes_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::system(("mkdir -p " + dir_).c_str());
    WriteText(dir_ + "/ok.esi",
              "layer Env;\n"
              "layer L1;\n"
              "interface <Env, L1> {\n"
              "  => { u8 c0; },\n"
              "  <= { u8 r0; }\n"
              "};\n");
    WriteText(dir_ + "/ok.esm",
              "void L1() {\n"
              "  EnvToL1 cmd;\n"
              "  byte v0;\n"
              "  v0 = 0;\n"
              "  end_init:\n"
              "  cmd = L1ReadEnv();\n"
              "  process:\n"
              "  v0 = cmd.c0;\n"
              "  end_reply:\n"
              "  cmd = L1TalkEnv(v0);\n"
              "  goto process;\n"
              "}\n");
    // Parses but lints: `cmd.c0 + 300` always truncates into a byte.
    WriteText(dir_ + "/lintwarn.esm",
              "void L1() {\n"
              "  EnvToL1 cmd;\n"
              "  byte v0;\n"
              "  v0 = 0;\n"
              "  end_init:\n"
              "  cmd = L1ReadEnv();\n"
              "  process:\n"
              "  v0 = cmd.c0 + 300;\n"
              "  end_reply:\n"
              "  cmd = L1TalkEnv(v0);\n"
              "  goto process;\n"
              "}\n");
    WriteText(dir_ + "/bad.esm", "void L1() { this is not esm at all }\n");
  }

  int RunEsmc(const std::string& args) {
    std::string command = std::string(EFEU_ESMC_PATH) + " " + args +
                          " -o " + dir_ + "/out >/dev/null 2>&1";
    int status = std::system(command.c_str());
    return WEXITSTATUS(status);
  }

  std::string dir_;
};

TEST_F(EsmcExitCodes, SuccessIsZeroAcrossEmitModes) {
  std::string spec = "--esi " + dir_ + "/ok.esi --esm " + dir_ + "/ok.esm ";
  EXPECT_EQ(RunEsmc(spec + "--emit ir"), 0);
  EXPECT_EQ(RunEsmc(spec + "--emit promela"), 0);
  EXPECT_EQ(RunEsmc(spec + "--emit c --entry L1"), 0);
  EXPECT_EQ(RunEsmc(spec + "--emit verilog"), 0);
  EXPECT_EQ(RunEsmc(spec + "--emit mmio --iface Env:L1"), 0);
  EXPECT_EQ(RunEsmc(spec + "--emit monitor --iface Env:L1"), 0);
  EXPECT_EQ(RunEsmc(spec + "--lint"), 0);
}

TEST_F(EsmcExitCodes, ParseSemaErrorIsTwoAcrossEmitModes) {
  std::string spec = "--esi " + dir_ + "/ok.esi --esm " + dir_ + "/bad.esm ";
  EXPECT_EQ(RunEsmc(spec + "--emit ir"), 2);
  EXPECT_EQ(RunEsmc(spec + "--emit promela"), 2);
  EXPECT_EQ(RunEsmc(spec + "--emit c --entry L1"), 2);
  EXPECT_EQ(RunEsmc(spec + "--emit verilog"), 2);
  EXPECT_EQ(RunEsmc(spec + "--emit mmio --iface Env:L1"), 2);
  EXPECT_EQ(RunEsmc(spec + "--emit monitor --iface Env:L1"), 2);
  EXPECT_EQ(RunEsmc(spec + "--lint=Werror"), 2);
}

TEST_F(EsmcExitCodes, FileReadErrorIsOne) {
  EXPECT_EQ(RunEsmc("--esi " + dir_ + "/missing.esi --esm " + dir_ +
                    "/ok.esm --emit ir"),
            1);
  EXPECT_EQ(RunEsmc("--esi " + dir_ + "/ok.esi --esm " + dir_ +
                    "/missing.esm --emit ir"),
            1);
}

TEST_F(EsmcExitCodes, UsageErrorIsTwo) {
  EXPECT_EQ(RunEsmc("--bogus-flag"), 2);
  // An action flag (--emit / --lint / --dump-analysis) is required.
  EXPECT_EQ(RunEsmc("--esi " + dir_ + "/ok.esi --esm " + dir_ + "/ok.esm"), 2);
}

TEST_F(EsmcExitCodes, LintWerrorIsThree) {
  std::string spec = "--esi " + dir_ + "/ok.esi --esm " + dir_ + "/lintwarn.esm ";
  EXPECT_EQ(RunEsmc(spec + "--lint=Werror"), 3);
  // Without escalation the same finding is a warning: success.
  EXPECT_EQ(RunEsmc(spec + "--lint"), 0);
}

}  // namespace
}  // namespace efeu::fuzz
