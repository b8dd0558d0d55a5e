// Unit tests for the support utilities: text handling, line counting,
// diagnostics rendering, hashing, reserved words, and the model checker's
// flat visited-state table (growth, forced fingerprint collisions, progress
// re-admission, clearing).

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <utility>

#include "src/support/diagnostics.h"
#include "src/support/hash.h"
#include "src/support/reserved_words.h"
#include "src/support/source_buffer.h"
#include "src/support/state_table.h"
#include "src/support/text.h"

namespace efeu {
namespace {

TEST(Text, SplitLinesBasic) {
  auto lines = SplitLines("a\nb\nc");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[2], "c");
}

TEST(Text, SplitLinesTrailingNewline) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
}

TEST(Text, SplitLinesEmpty) { EXPECT_TRUE(SplitLines("").empty()); }

TEST(Text, SplitLinesBlankLinesPreserved) {
  auto lines = SplitLines("a\n\nb");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "");
}

TEST(Text, TrimBothEnds) { EXPECT_EQ(Trim("  \thi \n"), "hi"); }

TEST(Text, TrimAllWhitespace) { EXPECT_EQ(Trim(" \t\r\n"), ""); }

TEST(Text, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(Text, CountCodeLinesSkipsBlanksAndComments) {
  const char* source =
      "// header comment\n"
      "\n"
      "int x;\n"
      "  // indented comment\n"
      "int y; // trailing comment counts as code\n";
  EXPECT_EQ(CountCodeLines(source), 2);
}

TEST(Text, CountCodeLinesBlockComments) {
  const char* source =
      "/* one\n"
      "   two\n"
      "   three */\n"
      "code;\n"
      "/* inline */ more;\n";
  EXPECT_EQ(CountCodeLines(source), 2);
}

TEST(Text, CountCodeLinesCustomLineComment) {
  EXPECT_EQ(CountCodeLines("-- vhdl comment\nsignal x;\n", "--"), 1);
}

TEST(Text, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(Text, CodeWriterIndentation) {
  CodeWriter writer;
  writer.Line("top {");
  {
    CodeWriter::Scope scope(writer);
    writer.Line("inner;");
  }
  writer.Line("}");
  EXPECT_EQ(writer.str(), "top {\n  inner;\n}\n");
}

TEST(Text, CodeWriterBlankNeverIndented) {
  CodeWriter writer;
  writer.Indent();
  writer.Blank();
  writer.Dedent();
  EXPECT_EQ(writer.str(), "\n");
}

TEST(SourceBuffer, LineAtMiddleLine) {
  SourceBuffer buffer("test", "first\nsecond\nthird");
  SourceLocation loc{2, 3, 8};  // inside "second"
  EXPECT_EQ(buffer.LineAt(loc), "second");
}

TEST(SourceBuffer, LineAtInvalid) {
  SourceBuffer buffer("test", "abc");
  EXPECT_EQ(buffer.LineAt(SourceLocation{}), "");
}

TEST(Diagnostics, RenderIncludesCaret) {
  SourceBuffer buffer("spec.esm", "int x = 3;");
  DiagnosticEngine diag;
  diag.Error(buffer, SourceLocation{1, 7, 6}, "no initialization");
  ASSERT_EQ(diag.error_count(), 1u);
  std::string rendered = diag.RenderAll();
  EXPECT_NE(rendered.find("spec.esm:1:7: error: no initialization"), std::string::npos);
  EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(Diagnostics, WarningsDoNotCountAsErrors) {
  SourceBuffer buffer("b", "x");
  DiagnosticEngine diag;
  diag.Warning(buffer, SourceLocation{1, 1, 0}, "meh");
  EXPECT_FALSE(diag.HasErrors());
  EXPECT_EQ(diag.diagnostics().size(), 1u);
}

TEST(Hash, DistinctForDifferentData) {
  std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = {1, 2, 4};
  EXPECT_NE(HashWords(a), HashWords(b));
}

TEST(Hash, StableForSameData) {
  std::vector<int32_t> a = {5, 6};
  EXPECT_EQ(HashWords(a), HashWords(a));
}

// Avalanche: flipping a single input bit should flip close to half the 64
// output bits. A weak word mix (like byte-FNV folded to 64 bits) fails this
// badly for low-entropy int32 state vectors.
TEST(Hash, SingleBitAvalanche) {
  std::vector<int32_t> base = {7, -3, 1 << 20, 0, 42};
  uint64_t h0 = HashWords(base);
  for (size_t word = 0; word < base.size(); ++word) {
    for (int bit = 0; bit < 32; ++bit) {
      std::vector<int32_t> flipped = base;
      flipped[word] ^= (int32_t{1} << bit);
      uint64_t h1 = HashWords(flipped);
      int changed = std::popcount(h0 ^ h1);
      EXPECT_GE(changed, 16) << "word " << word << " bit " << bit;
      EXPECT_LE(changed, 48) << "word " << word << " bit " << bit;
    }
  }
}

TEST(Hash, LengthIsSignificant) {
  std::vector<int32_t> a = {0, 0};
  std::vector<int32_t> b = {0, 0, 0};
  EXPECT_NE(HashWords(a), HashWords(b));
}

// Word i is the (i+1)-th multiple of the golden ratio: high bits set, so
// about half the words are negative.
std::vector<int32_t> GoldenWords(size_t size) {
  std::vector<int32_t> words(size);
  for (size_t i = 0; i < size; ++i) {
    words[i] = static_cast<int32_t>(0x9E3779B9u * static_cast<uint32_t>(i + 1));
  }
  return words;
}

// HashWords decides which forced-run states the checker stores
// (kPorChainSampleMask) and feeds the fingerprint tables, so its values are
// part of every pinned state count: they must not move.
TEST(Hash, HashWordsValuesArePinned) {
  const std::pair<size_t, uint64_t> pins[] = {
      {0, 0xefd01f60ba992926ull}, {1, 0xa1b8ce9356485d49ull},  {2, 0x1139f1446f2089eeull},
      {7, 0x045db416968ecd8cull}, {160, 0x952d71f9a03feeb2ull},
  };
  for (const auto& [size, hash] : pins) {
    EXPECT_EQ(HashWords(GoldenWords(size)), hash) << size << " words";
  }
}

// Start, lanes from any even split on, and finish compose to HashWords: what
// StateCodec::FullStateHash relies on when it resumes a cached chain.
TEST(Hash, PartsComposeToHashWordsAtEveryEvenSplit) {
  for (size_t size : {0, 1, 2, 3, 6, 7, 8, 9, 160, 161}) {
    const std::vector<int32_t> words = GoldenWords(size);
    const std::span<const int32_t> all(words);
    const size_t even = size & ~size_t{1};
    for (size_t split = 0; split <= even; split += 2) {
      uint64_t hash = HashWordsLanes(HashWordsStart(size), all.first(split));
      hash = HashWordsLanes(hash, all.subspan(split, even - split));
      EXPECT_EQ(HashWordsFinish(hash, all.subspan(even)), HashWords(words))
          << size << " words split at " << split;
    }
  }
}

// The interning hash only places components, but it must still see every
// word: one changed word anywhere, in any lane or the odd tail, moves it.
TEST(Hash, WideHashSeesEveryWord) {
  for (size_t size : {1, 2, 3, 7, 8, 9, 15, 16, 17, 157}) {
    const std::vector<int32_t> words = GoldenWords(size);
    const uint64_t base = HashWordsWide(words);
    for (size_t i = 0; i < size; ++i) {
      std::vector<int32_t> changed = words;
      changed[i] ^= 1;
      EXPECT_NE(HashWordsWide(changed), base) << size << " words, word " << i;
    }
  }
  EXPECT_NE(HashWordsWide(std::vector<int32_t>{0, 0}),
            HashWordsWide(std::vector<int32_t>{0, 0, 0}));
}

TEST(StateTable, ClaimOnceThenDuplicate) {
  StateTable table;
  std::vector<int32_t> s1 = {1, 2, 3};
  std::vector<int32_t> s2 = {1, 2, 4};
  EXPECT_TRUE(table.WouldClaim(s1));
  EXPECT_TRUE(table.Claim(s1));
  EXPECT_FALSE(table.Claim(s1));
  EXPECT_FALSE(table.WouldClaim(s1));
  EXPECT_TRUE(table.Claim(s2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.payload_bytes(), 2u * 3u * sizeof(int32_t));
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.WouldClaim(s1));
}

TEST(StateTable, FingerprintOnlyStoresEightBytesPerState) {
  StateTableOptions options;
  options.fingerprint_only = true;
  StateTable table(options);
  std::vector<int32_t> s1(64, 7);
  std::vector<int32_t> s2(64, 8);
  EXPECT_TRUE(table.Claim(s1));
  EXPECT_FALSE(table.Claim(s1));
  EXPECT_TRUE(table.Claim(s2));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.payload_bytes(), 16u);  // 8 bytes each, not 256.
}

TEST(StateTable, TrackProgressReadmitsLowerCredit) {
  StateTableOptions options;
  options.track_progress = true;
  StateTable table(options);
  std::vector<int32_t> s = {9, 9};
  EXPECT_TRUE(table.Claim(s, 5));
  EXPECT_FALSE(table.Claim(s, 5));   // Same credit: pruned.
  EXPECT_FALSE(table.Claim(s, 7));   // Higher credit: pruned.
  EXPECT_TRUE(table.WouldClaim(s, 3));
  EXPECT_TRUE(table.Claim(s, 3));    // Strictly lower: re-admitted.
  EXPECT_FALSE(table.Claim(s, 4));   // Minimum is now 3.
  EXPECT_EQ(table.size(), 1u);       // Still one distinct state.
}

std::vector<int32_t> TestState(int32_t i) { return {i, i * 7 + 1, ~i, i >> 3}; }

// 20000 states take the slot array from 16 slots through eleven doublings;
// every state claimed before a doubling must still be found after it.
TEST(StateTable, GrowthKeepsEveryStateFindable) {
  StateTable table;
  constexpr int32_t kStates = 20000;
  for (int32_t i = 0; i < kStates; ++i) {
    ASSERT_TRUE(table.Claim(TestState(i))) << i;
    if ((i & (i + 1)) == 0) {  // After each power of two: recheck everything.
      for (int32_t j = 0; j <= i; ++j) {
        ASSERT_FALSE(table.WouldClaim(TestState(j))) << j << " after " << i;
      }
    }
  }
  for (int32_t i = 0; i < kStates; ++i) {
    EXPECT_FALSE(table.Claim(TestState(i))) << i;
  }
  EXPECT_TRUE(table.WouldClaim(TestState(kStates)));
  EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
  EXPECT_EQ(table.payload_bytes(), static_cast<uint64_t>(kStates) * 4 * sizeof(int32_t));
}

// Equal fingerprints do not mean membership: distinct states claimed under
// one forced fingerprint are all admitted, and each is found again, across
// growth of the slot array.
TEST(StateTable, ForcedFingerprintCollisionsStayExact) {
  for (uint64_t fingerprint : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    StateTable table;
    constexpr int32_t kStates = 100;
    for (int32_t i = 0; i < kStates; ++i) {
      EXPECT_TRUE(table.WouldClaimHashed(fingerprint, TestState(i)));
      EXPECT_TRUE(table.ClaimHashed(fingerprint, TestState(i))) << i;
    }
    for (int32_t i = 0; i < kStates; ++i) {
      EXPECT_FALSE(table.ClaimHashed(fingerprint, TestState(i))) << i;
      EXPECT_FALSE(table.WouldClaimHashed(fingerprint, TestState(i))) << i;
    }
    EXPECT_TRUE(table.WouldClaimHashed(fingerprint, TestState(kStates)));
    EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
  }
}

// Fingerprint-only mode really does merge a forced collision (the documented
// hash-compaction trade), unlike exact mode above.
TEST(StateTable, FingerprintOnlyMergesForcedCollisions) {
  StateTableOptions options;
  options.fingerprint_only = true;
  StateTable table(options);
  EXPECT_TRUE(table.ClaimHashed(7, TestState(1)));
  EXPECT_FALSE(table.ClaimHashed(7, TestState(2)));
  EXPECT_EQ(table.size(), 1u);
}

TEST(StateTable, TrackProgressReadmitsAfterGrowth) {
  StateTableOptions options;
  options.track_progress = true;
  StateTable table(options);
  constexpr int32_t kStates = 5000;
  for (int32_t i = 0; i < kStates; ++i) {
    ASSERT_TRUE(table.Claim(TestState(i), 10 + static_cast<uint64_t>(i % 3)));
  }
  for (int32_t i = 0; i < kStates; ++i) {
    uint64_t credit = 10 + static_cast<uint64_t>(i % 3);
    EXPECT_FALSE(table.Claim(TestState(i), credit)) << i;      // Same credit.
    EXPECT_FALSE(table.Claim(TestState(i), credit + 1)) << i;  // Higher.
    EXPECT_TRUE(table.WouldClaim(TestState(i), credit - 1)) << i;
    EXPECT_TRUE(table.Claim(TestState(i), credit - 1)) << i;   // Lower: re-admitted.
    EXPECT_FALSE(table.Claim(TestState(i), credit - 1)) << i;  // Minimum lowered.
  }
  EXPECT_EQ(table.size(), static_cast<uint64_t>(kStates));
  // 4 key words plus the 8-byte credit per state.
  EXPECT_EQ(table.payload_bytes(), static_cast<uint64_t>(kStates) * (16 + 8));
}

TEST(StateTable, FingerprintOnlyPayloadAndClearReuse) {
  for (bool track_progress : {false, true}) {
    StateTableOptions options;
    options.fingerprint_only = true;
    options.track_progress = track_progress;
    StateTable table(options);
    for (int32_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(table.Claim(TestState(i)));
    }
    EXPECT_EQ(table.payload_bytes(), 300u * (track_progress ? 16u : 8u));
    table.Clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.payload_bytes(), 0u);
    // Reused after Clear, with another key width: nothing from before counts.
    std::vector<int32_t> wide(64, 3);
    EXPECT_TRUE(table.Claim(wide));
    EXPECT_FALSE(table.Claim(wide));
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.payload_bytes(), track_progress ? 16u : 8u);
  }
  // Exact mode: Clear empties the arena too, and repeated clears keep
  // working (the forced walk clears its set once per walk).
  StateTable exact;
  for (int round = 0; round < 50; ++round) {
    for (int32_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(exact.Claim(TestState(i + round))) << round << " " << i;
    }
    ASSERT_FALSE(exact.Claim(TestState(round)));
    ASSERT_EQ(exact.payload_bytes(), 40u * 16u);
    exact.Clear();
  }
  // Reused with a wider key, across several arena chunks.
  for (int32_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(exact.Claim(std::vector<int32_t>(64, i))) << i;
  }
  for (int32_t i = 0; i < 3000; ++i) {
    ASSERT_FALSE(exact.WouldClaim(std::vector<int32_t>(64, i))) << i;
  }
  EXPECT_EQ(exact.payload_bytes(), 3000u * 64u * 4u);
}

// Erase keeps every other entry reachable: entries sharing a probe run (one
// forced fingerprint, and neighbours that wrap into it) are removed in an
// order that exercises the backward shift.
TEST(FingerprintIndex, EraseKeepsProbeRunsReachable) {
  FingerprintIndex index;
  auto any = [](uint32_t) { return true; };
  constexpr uint32_t kEntries = 60;
  for (uint32_t v = 0; v < kEntries; ++v) {
    index.Insert(v % 3 == 0 ? 5 : v, v);
  }
  ASSERT_EQ(index.size(), kEntries);
  for (uint32_t v = 0; v < kEntries; v += 2) {
    index.Erase(v % 3 == 0 ? 5 : v, v);
  }
  index.Erase(999, 1234);  // Absent: no effect.
  EXPECT_EQ(index.size(), kEntries / 2);
  // A lookup only considers slots carrying its own fingerprint.
  for (uint64_t fingerprint = 1000; fingerprint < 1064; ++fingerprint) {
    EXPECT_EQ(index.Find(fingerprint, any), nullptr) << fingerprint;
  }
  for (uint32_t v = 0; v < kEntries; ++v) {
    uint64_t fingerprint = v % 3 == 0 ? 5 : v;
    uint32_t* found = index.Find(fingerprint, [v](uint32_t stored) { return stored == v; });
    if (v % 2 == 0) {
      EXPECT_EQ(found, nullptr) << v;
    } else {
      ASSERT_NE(found, nullptr) << v;
      EXPECT_EQ(*found, v);
    }
  }
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(5, any), nullptr);
  auto [value, inserted] = index.FindOrInsert(5, 77, any);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 77u);
  EXPECT_FALSE(index.FindOrInsert(5, 78, any).second);
}

TEST(ReservedWords, PromelaKeywords) {
  EXPECT_TRUE(IsPromelaReservedWord("len"));
  EXPECT_TRUE(IsPromelaReservedWord("timeout"));
  EXPECT_TRUE(IsPromelaReservedWord("active"));
  EXPECT_TRUE(IsPromelaReservedWord("mtype"));
  EXPECT_FALSE(IsPromelaReservedWord("plen"));
  EXPECT_FALSE(IsPromelaReservedWord("CSymbol"));
}

}  // namespace
}  // namespace efeu
