// Tests for esmsym (src/analysis/sym): the abstract domain at bit-width
// boundaries and its invariants over seeded values (canonical sets, join
// laws, set-capacity edges), the path-condition solver (enumeration,
// refinement, storage verdicts), the symbolic executor over small lowered
// specs (rendezvous facts, short-circuit conditions, nondet, loop widening),
// the two sym-backed lint rules with triggering and silent cases, golden
// summary rendering, and every shipped specification proving clean under
// Werror with its summary pinned and its unchanged module-rounds reused.

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/analysis.h"
#include "src/analysis/sym/domain.h"
#include "src/analysis/sym/solver.h"
#include "src/analysis/sym/symexec.h"
#include "src/i2c/stack.h"
#include "src/i2c/verify.h"
#include "src/ir/compile.h"
#include "src/spi/verify.h"
#include "src/support/diagnostics.h"

namespace efeu {
namespace {

using analysis::Interval;
using analysis::sym::CompilationSummary;
using analysis::sym::EvalBinOp;
using analysis::sym::EvalUnOp;
using analysis::sym::ExcludeValue;
using analysis::sym::Expr;
using analysis::sym::ExprPtr;
using analysis::sym::Gcd;
using analysis::sym::Join;
using analysis::sym::JoinKeeps;
using analysis::sym::ModuleSummary;
using analysis::sym::Outcome;
using analysis::sym::Refine;
using analysis::sym::SiteVerdict;
using analysis::sym::Solver;
using analysis::sym::SymVal;
using analysis::sym::Truncate;
using analysis::sym::Widen;

// ---- domain: truncation at storage boundaries ------------------------------

TEST(SymDomain, TruncateWrapsU8Pointwise) {
  SymVal v = SymVal::FromSet({255, 256, 257, -1});
  SymVal t = Truncate(v, Type::U8());
  EXPECT_TRUE(t.Contains(0));
  EXPECT_TRUE(t.Contains(1));
  EXPECT_TRUE(t.Contains(255));
  EXPECT_FALSE(t.Contains(256));
  EXPECT_FALSE(t.Contains(-1));
}

TEST(SymDomain, TruncateSignExtendsI16) {
  SymVal v = SymVal::FromSet({32767, 32768, 65535});
  SymVal t = Truncate(v, Type::I16());
  EXPECT_TRUE(t.Contains(32767));
  EXPECT_TRUE(t.Contains(-32768));
  EXPECT_TRUE(t.Contains(-1));
  EXPECT_FALSE(t.Contains(32768));
}

TEST(SymDomain, TruncateNormalizesBoolish) {
  SymVal t = Truncate(SymVal::FromSet({0, 7}), Type::Bool());
  EXPECT_TRUE(t.Contains(0));
  EXPECT_TRUE(t.Contains(1));
  EXPECT_FALSE(t.Contains(7));
  EXPECT_EQ(t.interval.lo, 0);
  EXPECT_EQ(t.interval.hi, 1);
}

TEST(SymDomain, CongruenceSurvivesU8Truncation) {
  // Even values stay even through a mod-256 reduction: gcd(2, 256) == 2.
  SymVal v = SymVal::FromInterval(Interval::Of(0, 511));
  v.mod = 2;
  v.res = 0;
  SymVal t = Truncate(v, Type::U8());
  EXPECT_EQ(t.mod, 2);
  EXPECT_EQ(t.res, 0);
  EXPECT_FALSE(t.Contains(1));
  EXPECT_TRUE(t.Contains(254));
}

TEST(SymDomain, StorageHullsMatchBitWidths) {
  SymVal u8 = SymVal::Storage(Type::U8());
  EXPECT_EQ(u8.interval.lo, 0);
  EXPECT_EQ(u8.interval.hi, 255);
  SymVal i16 = SymVal::Storage(Type::I16());
  EXPECT_EQ(i16.interval.lo, -32768);
  EXPECT_EQ(i16.interval.hi, 32767);
  SymVal bit = SymVal::Storage(Type::Bit());
  EXPECT_EQ(bit.interval.lo, 0);
  EXPECT_EQ(bit.interval.hi, 1);
}

// ---- domain: join, widen, refine, exclude ----------------------------------

TEST(SymDomain, JoinKeepsSmallSetsExact) {
  SymVal j = Join(SymVal::FromSet({0, 2}), SymVal::FromSet({4}));
  EXPECT_TRUE(j.HasSet());
  EXPECT_TRUE(j.Contains(0));
  EXPECT_TRUE(j.Contains(2));
  EXPECT_TRUE(j.Contains(4));
  EXPECT_FALSE(j.Contains(1));
  EXPECT_FALSE(j.Contains(3));
}

TEST(SymDomain, JoinCollapsesOversizedSetsToHull) {
  std::vector<int32_t> a;
  std::vector<int32_t> b;
  for (int i = 0; i < analysis::sym::kMaxSetSize; ++i) {
    a.push_back(2 * i);
    b.push_back(2 * i + 100);
  }
  SymVal j = Join(SymVal::FromSet(a), SymVal::FromSet(b));
  EXPECT_FALSE(j.HasSet());
  EXPECT_EQ(j.interval.lo, 0);
  EXPECT_EQ(j.interval.hi, 100 + 2 * (analysis::sym::kMaxSetSize - 1));
}

TEST(SymDomain, JoinPropagatesAssumedTaint) {
  SymVal tainted = SymVal::Exact(1);
  tainted.assumed = true;
  EXPECT_TRUE(Join(SymVal::Exact(0), tainted).assumed);
  EXPECT_FALSE(Join(SymVal::Exact(0), SymVal::Exact(1)).assumed);
}

TEST(SymDomain, WidenJumpsGrowingBoundsToStorageHull) {
  SymVal prev = SymVal::FromInterval(Interval::Of(0, 3));
  SymVal next = SymVal::FromInterval(Interval::Of(0, 4));
  SymVal w = Widen(prev, next, Interval::Of(0, 255));
  EXPECT_EQ(w.interval.hi, 255);
  EXPECT_EQ(w.interval.lo, 0);
  // A stable bound is left alone.
  SymVal stable = Widen(prev, prev, Interval::Of(0, 255));
  EXPECT_EQ(stable.interval.hi, 3);
}

TEST(SymDomain, RefineIntersectsAndKeepsNonEmpty) {
  SymVal r = Refine(SymVal::FromSet({0, 2, 5}), SymVal::FromInterval(Interval::Of(1, 4)));
  EXPECT_TRUE(r.Contains(2));
  EXPECT_FALSE(r.Contains(0));
  EXPECT_FALSE(r.Contains(5));
  // Empty intersection: refinement is advisory, the input survives.
  SymVal kept = Refine(SymVal::Exact(7), SymVal::Exact(9));
  EXPECT_TRUE(kept.Contains(7));
}

TEST(SymDomain, ExcludeValueDropsSetMember) {
  SymVal v = ExcludeValue(SymVal::FromSet({0, 2, 5}), 0);
  EXPECT_FALSE(v.Contains(0));
  EXPECT_TRUE(v.Contains(2));
  EXPECT_TRUE(v.Contains(5));
}

TEST(SymDomain, ExcludeValueTightensIntervalEndpoints) {
  SymVal lo = ExcludeValue(SymVal::FromInterval(Interval::Of(0, 300)), 0);
  EXPECT_EQ(lo.interval.lo, 1);
  SymVal hi = ExcludeValue(SymVal::FromInterval(Interval::Of(-5, 300)), 300);
  EXPECT_EQ(hi.interval.hi, 299);
}

TEST(SymDomain, ExcludeValueLeavesInteriorPointsAlone) {
  // An interior exclusion is not representable in the domain.
  SymVal v = ExcludeValue(SymVal::FromInterval(Interval::Of(0, 300)), 150);
  EXPECT_EQ(v.interval.lo, 0);
  EXPECT_EQ(v.interval.hi, 300);
  EXPECT_TRUE(v.Contains(150));
}

TEST(SymDomain, ExcludeValuePreservesTaint) {
  SymVal v = SymVal::FromSet({0, 2});
  v.assumed = true;
  EXPECT_TRUE(ExcludeValue(v, 0).assumed);
}

TEST(SymDomain, DivisionReportsMayFailOnlyWhenZeroAdmitted) {
  bool may_fail = false;
  SymVal q = EvalBinOp(esm::BinaryOp::kDiv, SymVal::Exact(10), SymVal::FromSet({0, 2}), &may_fail);
  EXPECT_TRUE(may_fail);
  EXPECT_TRUE(q.Contains(5));
  may_fail = false;
  EvalBinOp(esm::BinaryOp::kDiv, SymVal::Exact(10), SymVal::FromInterval(Interval::Of(1, 4)),
            &may_fail);
  EXPECT_FALSE(may_fail);
}

// ---- domain: invariants over seeded values ---------------------------------

// A set-carrying value is sorted, duplicate-free, at most kMaxSetSize long,
// and in FromSet canonical form: interval [min, max], congruence from the gcd
// of the members' distances to the minimum. Set-less values pass.
::testing::AssertionResult Canonical(const SymVal& v) {
  if (!v.HasSet()) {
    return ::testing::AssertionSuccess();
  }
  if (v.values.size() > analysis::sym::kMaxSetSize) {
    return ::testing::AssertionFailure() << v.ToString() << ": oversized set";
  }
  for (int i = 1; i < v.values.size(); ++i) {
    if (v.values[i - 1] >= v.values[i]) {
      return ::testing::AssertionFailure() << v.ToString() << ": not sorted and unique";
    }
  }
  const int64_t lo = v.values.front();
  int64_t mod = 0;
  for (int32_t x : v.values) {
    mod = std::gcd(mod, x - lo);
  }
  const int64_t res = mod == 0 ? lo : ((lo % mod) + mod) % mod;
  if (v.interval.lo != lo || v.interval.hi != v.values.back() || v.mod != mod || v.res != res) {
    return ::testing::AssertionFailure()
           << v.ToString() << ": interval [" << v.interval.lo << "," << v.interval.hi
           << "] mod " << v.mod << " res " << v.res << ", canonical [" << lo << ","
           << v.values.back() << "] mod " << mod << " res " << res;
  }
  return ::testing::AssertionSuccess();
}

// Exact equality, with both values in full in the failure message.
::testing::AssertionResult Same(const SymVal& a, const SymVal& b) {
  if (a == b) {
    return ::testing::AssertionSuccess();
  }
  auto full = [](const SymVal& v) {
    return v.ToString() + " [" + std::to_string(v.interval.lo) + "," +
           std::to_string(v.interval.hi) + "] mod " + std::to_string(v.mod) + " res " +
           std::to_string(v.res);
  };
  return ::testing::AssertionFailure() << full(a) << " != " << full(b);
}

// Storage-boundary corners of the int32 values the executor computes.
constexpr int32_t kCorners[] = {
    INT32_MIN, -65536, -32768, -129,  -128,  -1,    0,     1,       2,        127,
    128,       255,    256,    32767, 32768, 65535, 65536, 1 << 30, INT32_MAX};

// Deterministic abstract values of every shape the executor builds: exact
// values, sets of up to kMaxSetSize members, small and wide intervals, strided
// intervals, storage hulls and Top, each tainted now and then. Scalars mix a
// small window around zero with storage-boundary corners.
class ValueGen {
 public:
  explicit ValueGen(uint32_t seed) : rng_(seed) {}

  int32_t Scalar() {
    if (Pick(3) == 0) {
      return kCorners[Pick(std::size(kCorners))];
    }
    return static_cast<int32_t>(Pick(41)) - 20;
  }

  SymVal Next() {
    SymVal v;
    switch (Pick(6)) {
      case 0:
        v = SymVal::Exact(Scalar());
        break;
      case 1: {
        std::vector<int32_t> vals(1 + Pick(analysis::sym::kMaxSetSize));
        for (int32_t& x : vals) {
          x = Scalar();
        }
        v = SymVal::FromSet(vals);
        break;
      }
      case 2: {
        int64_t lo = static_cast<int64_t>(Pick(600)) - 300;
        v = SymVal::FromInterval(Interval::Of(lo, lo + Pick(20)));
        break;
      }
      case 3:
        v = SymVal::FromInterval(Interval::Of(-static_cast<int64_t>(Pick(1000)), Pick(100000)));
        break;
      case 4: {
        int64_t lo = static_cast<int64_t>(Pick(200)) - 100;
        v = SymVal::FromInterval(Interval::Of(lo, lo + Pick(300)));
        v.mod = 2 + Pick(15);
        v.res = ((lo % v.mod) + v.mod) % v.mod;
        v.Canonicalize();
        break;
      }
      default: {
        const Type types[] = {Type::Bit(), Type::Bool(), Type::U8(), Type::I16(), Type::I32()};
        v = Pick(6) == 0 ? SymVal::Top() : SymVal::Storage(types[Pick(std::size(types))]);
        break;
      }
    }
    v.assumed = Pick(4) == 0;
    return v;
  }

  uint32_t Pick(size_t n) { return static_cast<uint32_t>(rng_() % n); }

 private:
  std::mt19937 rng_;
};

TEST(SymDomainInvariants, TransferResultsStayCanonical) {
  const Type types[] = {Type::Bit(), Type::Bool(), Type::U8(), Type::I16(), Type::I32()};
  const esm::UnaryOp unops[] = {esm::UnaryOp::kPlus, esm::UnaryOp::kNegate, esm::UnaryOp::kBitNot,
                                esm::UnaryOp::kLogicalNot};
  ValueGen gen(/*seed=*/20251017);
  for (int iter = 0; iter < 1500; ++iter) {
    const SymVal a = gen.Next();
    const SymVal b = gen.Next();
    SCOPED_TRACE("a=" + a.ToString() + " b=" + b.ToString());
    ASSERT_TRUE(Canonical(a));
    ASSERT_TRUE(Canonical(b));
    EXPECT_TRUE(Canonical(Join(a, b)));
    for (const Type& type : types) {
      EXPECT_TRUE(Canonical(Truncate(a, type)));
      EXPECT_TRUE(Canonical(Widen(a, b, Interval::Storage(type))));
    }
    for (esm::UnaryOp op : unops) {
      EXPECT_TRUE(Canonical(EvalUnOp(op, a)));
    }
    for (int op = 0; op <= static_cast<int>(esm::BinaryOp::kLogicalOr); ++op) {
      EXPECT_TRUE(Canonical(EvalBinOp(static_cast<esm::BinaryOp>(op), a, b))) << "op " << op;
    }
    EXPECT_TRUE(Canonical(Refine(a, b)));
    EXPECT_TRUE(Canonical(ExcludeValue(a, a.HasSet() ? a.values[gen.Pick(a.values.size())]
                                                     : static_cast<int32_t>(a.interval.lo))));
    EXPECT_TRUE(Canonical(ExcludeValue(a, gen.Scalar())));
  }
}

TEST(SymDomainInvariants, JoinIsIdempotentCommutativeAndUpperBound) {
  ValueGen gen(/*seed=*/7);
  for (int iter = 0; iter < 1500; ++iter) {
    const SymVal a = gen.Next();
    const SymVal b = gen.Next();
    SCOPED_TRACE("a=" + a.ToString() + " b=" + b.ToString());
    if (a.HasSet()) {
      EXPECT_TRUE(Same(Join(a, a), a));
      SymVal tainted = a;
      tainted.assumed = true;
      EXPECT_TRUE(Same(Join(a, tainted), tainted));
    }
    const SymVal ab = Join(a, b);
    EXPECT_TRUE(Same(ab, Join(b, a)));
    EXPECT_TRUE(a.SubsumedBy(ab)) << ab.ToString();
    EXPECT_TRUE(b.SubsumedBy(ab)) << ab.ToString();
  }
  // Idempotence is only claimed for sets: a widened bool cell is the
  // set-less hull [0,1], and joining it with itself canonicalizes it.
  const SymVal widened = Widen(SymVal::Exact(0), SymVal::Exact(1), Interval::Of(0, 1));
  ASSERT_FALSE(widened.HasSet());
  EXPECT_TRUE(Same(Join(widened, widened), SymVal::FromSet({0, 1})));
}

TEST(SymDomainInvariants, SetCapacityBoundaries) {
  constexpr int kMax = analysis::sym::kMaxSetSize;
  std::vector<int32_t> evens;
  for (int i = 0; i < kMax; ++i) {
    evens.push_back(2 * i);
  }
  // kMaxSetSize members are kept exactly.
  SymVal full = SymVal::FromSet(evens);
  ASSERT_TRUE(full.HasSet());
  EXPECT_EQ(full.values.size(), kMax);
  EXPECT_TRUE(
      Same(Join(SymVal::FromSet(std::vector<int32_t>(evens.begin(), evens.begin() + kMax / 2)),
                SymVal::FromSet(std::vector<int32_t>(evens.begin() + kMax / 2, evens.end()))),
           full));
  // One more collapses to the interval + congruence hull, directly or by join.
  std::vector<int32_t> more = evens;
  more.push_back(2 * kMax);
  SymVal hull = SymVal::FromSet(more);
  EXPECT_FALSE(hull.HasSet());
  EXPECT_EQ(hull.interval.lo, 0);
  EXPECT_EQ(hull.interval.hi, 2 * kMax);
  EXPECT_EQ(hull.mod, 2);
  EXPECT_EQ(hull.res, 0);
  EXPECT_TRUE(Same(Join(full, SymVal::Exact(2 * kMax)), hull));
  // An 8x8 pointwise operation fills the whole candidate buffer: all 64 sums
  // of {0..7} and {0,8,..,56} are distinct.
  std::vector<int32_t> low;
  std::vector<int32_t> high;
  for (int i = 0; i < kMax; ++i) {
    low.push_back(i);
    high.push_back(kMax * i);
  }
  SymVal sums = EvalBinOp(esm::BinaryOp::kAdd, SymVal::FromSet(low), SymVal::FromSet(high));
  EXPECT_FALSE(sums.HasSet());
  EXPECT_EQ(sums.interval.lo, 0);
  EXPECT_EQ(sums.interval.hi, kMax * kMax - 1);
  EXPECT_EQ(sums.mod, 1);
  EXPECT_TRUE(Same(EvalBinOp(esm::BinaryOp::kMul, SymVal::FromSet(high), SymVal::Exact(1)),
                   SymVal::FromSet(high)));
}

TEST(SymDomainInvariants, ShrunkSetsEqualDirectlyBuiltOnes) {
  const SymVal v = SymVal::FromSet({9, 0, 5, 2});
  EXPECT_TRUE(Same(ExcludeValue(v, 5), SymVal::FromSet({0, 2, 9})));
  EXPECT_TRUE(Same(ExcludeValue(v, 9), SymVal::FromSet({0, 2, 5})));
  EXPECT_TRUE(Same(Refine(v, SymVal::FromInterval(Interval::Of(1, 6))), SymVal::FromSet({2, 5})));
  EXPECT_TRUE(Same(Refine(v, SymVal::FromSet({0, 9, 11})), SymVal::FromSet({0, 9})));
  // Equality ignores the slots past the set's size: a set shrunk in place
  // keeps stale members there.
  SymVal shrunk = v;
  const int32_t two = 2;
  shrunk.values.Assign(&two, 1);
  shrunk.Canonicalize();
  EXPECT_TRUE(Same(shrunk, SymVal::Exact(2)));
}

// ---- domain: the laws the executor's join-point fast paths rely on ----------

// Every value the transfer functions build from `a` and `b`.
std::vector<SymVal> TransferResults(const SymVal& a, const SymVal& b, int32_t scalar) {
  const Type types[] = {Type::Bit(), Type::Bool(), Type::U8(), Type::I16(), Type::I32()};
  const esm::UnaryOp unops[] = {esm::UnaryOp::kPlus, esm::UnaryOp::kNegate, esm::UnaryOp::kBitNot,
                                esm::UnaryOp::kLogicalNot};
  std::vector<SymVal> out = {Join(a, b), Refine(a, b), ExcludeValue(a, scalar)};
  for (const Type& type : types) {
    out.push_back(Truncate(a, type));
    out.push_back(Widen(a, b, Interval::Storage(type)));
  }
  for (esm::UnaryOp op : unops) {
    out.push_back(EvalUnOp(op, a));
  }
  for (int op = 0; op <= static_cast<int>(esm::BinaryOp::kLogicalOr); ++op) {
    out.push_back(EvalBinOp(static_cast<esm::BinaryOp>(op), a, b));
  }
  return out;
}

TEST(SymDomainInvariants, SubsumedByIsReflexive) {
  // The executor's subsumption check skips every cell equal to the entry's.
  ValueGen gen(/*seed=*/4242);
  for (int iter = 0; iter < 1500; ++iter) {
    const SymVal a = gen.Next();
    const SymVal b = gen.Next();
    SCOPED_TRACE("a=" + a.ToString() + " b=" + b.ToString());
    EXPECT_TRUE(a.SubsumedBy(a));
    for (const SymVal& v : TransferResults(a, b, gen.Scalar())) {
      EXPECT_TRUE(v.SubsumedBy(v)) << v.ToString();
    }
  }
}

TEST(SymDomainInvariants, JoinKeepsMatchesJoinAndWiden) {
  // Where JoinKeeps holds, the executor keeps the entry value without
  // joining: both Join and Widen must return exactly that value.
  const Interval storages[] = {Interval::Of(0, 1), Interval::Of(0, 255),
                               Interval::Of(-32768, 32767), Interval::Full()};
  ValueGen gen(/*seed=*/99);
  int kept = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const SymVal a = gen.Next();
    // The same value rebuilt from its set, with an independent taint, and an
    // unrelated value.
    SymVal same = a.HasSet() ? SymVal::FromSet(std::vector<int32_t>(a.values.begin(),
                                                                    a.values.end()))
                             : a;
    same.assumed = gen.Pick(2) == 0;
    for (const SymVal& b : {same, gen.Next()}) {
      SCOPED_TRACE("a=" + a.ToString() + " b=" + b.ToString());
      if (!JoinKeeps(a, b)) {
        continue;
      }
      ++kept;
      EXPECT_TRUE(Same(Join(a, b), a));
      for (const Interval& storage : storages) {
        EXPECT_TRUE(Same(Widen(a, b, storage), a));
      }
    }
  }
  EXPECT_GT(kept, 300);
  // A set-less value never qualifies: joined with itself it canonicalizes.
  const SymVal widened = Widen(SymVal::Exact(0), SymVal::Exact(1), Interval::Of(0, 1));
  EXPECT_FALSE(JoinKeeps(widened, widened));
}

TEST(SymDomainInvariants, SetLessSelfJoinIsCanonicalize) {
  ValueGen gen(/*seed=*/31337);
  int checked = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const SymVal a = gen.Next();
    const SymVal b = gen.Next();
    // Widening leaves set-less hulls in non-canonical form.
    for (const SymVal& x : {a, Widen(a, b, Interval::Full()), Widen(b, a, Interval::Of(0, 255))}) {
      if (x.HasSet()) {
        continue;
      }
      SCOPED_TRACE("x=" + x.ToString());
      SymVal tainted = x;
      tainted.assumed = true;
      SymVal canonical = x;
      canonical.Canonicalize();
      EXPECT_TRUE(Same(Join(x, x), canonical));
      canonical.assumed = true;
      EXPECT_TRUE(Same(Join(x, tainted), canonical));
      EXPECT_TRUE(Same(Join(tainted, x), canonical));
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
  // Equal intervals alone do not make equal hulls: the congruences still join.
  SymVal even = SymVal::FromInterval(Interval::Of(0, 300));
  even.mod = 2;
  SymVal odd = even;
  odd.res = 1;
  SymVal thirds = even;
  thirds.mod = 3;
  for (const SymVal& other : {odd, thirds}) {
    EXPECT_TRUE(Same(Join(even, other), SymVal::FromInterval(Interval::Of(0, 300))));
  }
}

TEST(SymDomainInvariants, GcdMatchesStdGcd) {
  // The corners, their negations and their distances (a set's congruence is
  // the gcd of its members' distances to the minimum), zero included.
  std::vector<int64_t> scalars;
  for (int32_t a : kCorners) {
    scalars.push_back(a);
    scalars.push_back(-static_cast<int64_t>(a));
    for (int32_t b : kCorners) {
      scalars.push_back(static_cast<int64_t>(a) - b);
    }
  }
  for (int64_t v = -20; v <= 20; ++v) {
    scalars.push_back(v);
  }
  for (int64_t a : scalars) {
    for (int64_t b : scalars) {
      ASSERT_EQ(Gcd(a, b), std::gcd(a, b)) << "a=" << a << " b=" << b;
    }
  }
}

// ---- solver: enumeration, refinement, storage verdicts ---------------------

ExprPtr LeafOf(int record, SymVal val, Type type = Type::I32()) {
  return Expr::Leaf(record, /*gen=*/1, std::move(val), type, /*refinable=*/true);
}

TEST(SymSolver, EnumerationDecidesAndRefines) {
  Solver solver;
  // x in {0, 2, 5}; condition (x == 2).
  ExprPtr cond =
      Expr::Bin(esm::BinaryOp::kEq, LeafOf(0, SymVal::FromSet({0, 2, 5})), Expr::Const(2));
  auto r = solver.Solve(cond);
  EXPECT_EQ(r.outcome, Outcome::kUnknown);
  EXPECT_TRUE(r.enumerated);
  ASSERT_EQ(r.when_true.size(), 1u);
  EXPECT_TRUE(r.when_true[0].refined.Contains(2));
  EXPECT_FALSE(r.when_true[0].refined.Contains(0));
  ASSERT_EQ(r.when_false.size(), 1u);
  EXPECT_TRUE(r.when_false[0].refined.Contains(0));
  EXPECT_TRUE(r.when_false[0].refined.Contains(5));
  EXPECT_FALSE(r.when_false[0].refined.Contains(2));
}

TEST(SymSolver, EnumerationProvesAlwaysTrue) {
  Solver solver;
  ExprPtr cond =
      Expr::Bin(esm::BinaryOp::kLt, LeafOf(0, SymVal::FromSet({1, 2, 3})), Expr::Const(4));
  EXPECT_EQ(solver.Solve(cond).outcome, Outcome::kAlwaysTrue);
}

TEST(SymSolver, DivisionByPossiblyZeroLeafSetsMayFail) {
  Solver solver;
  ExprPtr cond =
      Expr::Bin(esm::BinaryOp::kDiv, Expr::Const(8), LeafOf(0, SymVal::FromSet({0, 2})));
  auto r = solver.Solve(cond);
  EXPECT_TRUE(r.may_fail);
}

TEST(SymSolver, AssumedLeafTaintsTheDecision) {
  Solver solver;
  SymVal v = SymVal::FromSet({1, 2});
  v.assumed = true;
  ExprPtr cond = Expr::Bin(esm::BinaryOp::kGe, LeafOf(0, v), Expr::Const(1));
  auto r = solver.Solve(cond);
  EXPECT_EQ(r.outcome, Outcome::kAlwaysTrue);
  EXPECT_TRUE(r.assumed);
  // And an assumed leaf can never ground a type-tautology claim.
  EXPECT_FALSE(solver.IsTypeTautology(cond));
}

TEST(SymSolver, StorageOutcomeJudgesTypesNotValues) {
  Solver solver;
  // b is a bool that the analysis knows is exactly 1; (b <= 1) holds for the
  // whole storage, (b == 1) only for the learned value.
  ExprPtr vacuous =
      Expr::Bin(esm::BinaryOp::kLe, LeafOf(0, SymVal::Exact(1), Type::Bool()), Expr::Const(1));
  EXPECT_EQ(solver.StorageOutcome(vacuous), Outcome::kAlwaysTrue);
  EXPECT_TRUE(solver.IsTypeTautology(vacuous));
  ExprPtr contingent =
      Expr::Bin(esm::BinaryOp::kEq, LeafOf(0, SymVal::Exact(1), Type::Bool()), Expr::Const(1));
  EXPECT_EQ(solver.StorageOutcome(contingent), Outcome::kUnknown);
  EXPECT_FALSE(solver.IsTypeTautology(contingent));
}

TEST(SymSolver, StorageOutcomeAlwaysFalseAtBitWidthBoundary) {
  Solver solver;
  // A u8 can never exceed 255 — dead for any value its storage admits.
  ExprPtr dead =
      Expr::Bin(esm::BinaryOp::kGt, LeafOf(0, SymVal::Exact(3), Type::U8()), Expr::Const(300));
  EXPECT_EQ(solver.StorageOutcome(dead), Outcome::kAlwaysFalse);
}

TEST(SymSolver, StorageOutcomeUnknownWithoutProgramLeaves) {
  Solver solver;
  // `while (1)` headers: a constant condition is control flow, not a type
  // fact, so neither lint rule may claim it.
  EXPECT_EQ(solver.StorageOutcome(Expr::Const(1)), Outcome::kUnknown);
  EXPECT_FALSE(solver.IsTypeTautology(Expr::Const(1)));
}

// ---- executor over small lowered specs -------------------------------------

constexpr char kPairEsi[] = R"esi(
layer Up;
layer Down;
interface <Up, Down> {
  => { i32 v; },
  <= { i32 r; }
};
)esi";

constexpr char kEchoDown[] = R"esm(
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(q.v);
  goto end_reply;
}
)esm";

struct SymOutcome {
  std::unique_ptr<ir::Compilation> comp;
  CompilationSummary summary;
};

SymOutcome RunSym(const std::string& esm, bool allow_nondet = false,
                  const analysis::sym::SymOptions& options = {}) {
  SymOutcome out;
  DiagnosticEngine diag;
  ir::CompileOptions copts;
  copts.allow_nondet = allow_nondet;
  out.comp = ir::Compile(kPairEsi, esm, diag, copts);
  EXPECT_NE(out.comp, nullptr) << diag.RenderAll();
  if (out.comp == nullptr) {
    return out;
  }
  out.summary = analysis::sym::AnalyzeCompilationSym(*out.comp, options);
  return out;
}

const ModuleSummary* FindModuleSummary(const SymOutcome& out, const std::string& layer) {
  for (const ModuleSummary& m : out.summary.modules) {
    if (m.layer == layer) {
      return &m;
    }
  }
  return nullptr;
}

// All assert-kind sites of one module, in program order.
std::vector<const SiteVerdict*> AssertSites(const ModuleSummary& m) {
  std::vector<const SiteVerdict*> sites;
  for (const SiteVerdict& s : m.sites) {
    if (s.kind == SiteVerdict::Kind::kAssert) {
      sites.push_back(&s);
    }
  }
  return sites;
}

TEST(SymExec, RendezvousProvesCrossLayerAssert) {
  // Up's reply facts come from Down's computed send summary (assume-guarantee
  // round 2), so the assert is proved without any assumed contract.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(5);
  assert(r.r == 5);
}
)esm") + kEchoDown);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  auto asserts = AssertSites(*up);
  ASSERT_EQ(asserts.size(), 1u);
  EXPECT_TRUE(asserts[0]->proved) << asserts[0]->value;
  EXPECT_FALSE(asserts[0]->assumed);
  bool any_assumed = true;
  EXPECT_TRUE(out.summary.AllProved(&any_assumed));
  EXPECT_FALSE(any_assumed);
  EXPECT_GE(out.summary.rounds, 2);
}

TEST(SymExec, ShortCircuitOrConditionIsProved) {
  // Short-circuit `||` lowers to a CFG that joins the condition cell from two
  // blocks; the proof needs the arm-local strengthening of the condition cell
  // itself (the cell is not a leaf of its own defining expression).
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  r = UpTalkDown(1);
  if (r.r > 0) {
    x = 0;
  } else {
    x = 2;
  }
  assert(x == 0 || x == 2);
  r = UpTalkDown(x);
}
)esm") + kEchoDown);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  auto asserts = AssertSites(*up);
  ASSERT_EQ(asserts.size(), 1u);
  EXPECT_TRUE(asserts[0]->proved) << asserts[0]->value;
  EXPECT_FALSE(asserts[0]->assumed);
}

TEST(SymExec, NondetChoicesBecomeExactSets) {
  // One summary covers both nondet arms; the assert bounds the choice.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int c;
  c = nondet(2);
  assert(c < 2);
  r = UpTalkDown(c);
}
)esm") + kEchoDown,
                          /*allow_nondet=*/true);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  auto asserts = AssertSites(*up);
  ASSERT_EQ(asserts.size(), 1u);
  EXPECT_TRUE(asserts[0]->proved) << asserts[0]->value;
}

TEST(SymExec, GuardedDivisionIsProved) {
  // The `d > 0` refinement is interval-representable ([1, hi]); a `d != 0`
  // guard around an interval spanning zero would not be (interior-point
  // exclusion), and the obligation would soundly stay unproved.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int d;
  int y;
  r = UpTalkDown(3);
  d = r.r;
  if (d > 0) {
    y = 12 / d;
  } else {
    y = 0;
  }
  r = UpTalkDown(y);
}
)esm") + kEchoDown);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  bool saw_divisor = false;
  for (const SiteVerdict& s : up->sites) {
    if (s.kind == SiteVerdict::Kind::kDivisor) {
      saw_divisor = true;
      EXPECT_TRUE(s.proved) << s.value;
    }
  }
  EXPECT_TRUE(saw_divisor);
}

TEST(SymExec, UnguardedNondetDivisorStaysUnproved) {
  // d draws from {0, 1, 2}; 12 / d can fail, and no proof may claim
  // otherwise.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int d;
  int y;
  d = nondet(3);
  y = 12 / d;
  r = UpTalkDown(y);
}
)esm") + kEchoDown,
                          /*allow_nondet=*/true);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  bool saw_divisor = false;
  for (const SiteVerdict& s : up->sites) {
    if (s.kind == SiteVerdict::Kind::kDivisor) {
      saw_divisor = true;
      EXPECT_FALSE(s.proved) << s.value;
    }
  }
  EXPECT_TRUE(saw_divisor);
  EXPECT_FALSE(out.summary.AllProved());
}

TEST(SymExec, LoopIndexBoundsProvedThroughWidening) {
  // The loop counter widens at the loop head, but the branch refinement on
  // `i < 4` re-narrows the body store, so the index obligation stays proved.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int arr[4];
  int i;
  i = 0;
  while (i < 4) {
    arr[i] = i;
    i = i + 1;
  }
  r = UpTalkDown(arr[3]);
}
)esm") + kEchoDown);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  EXPECT_TRUE(up->complete);
  EXPECT_GE(up->widenings, 0u);
  bool saw_index = false;
  for (const SiteVerdict& s : up->sites) {
    if (s.kind == SiteVerdict::Kind::kIndex) {
      saw_index = true;
      EXPECT_TRUE(s.proved) << s.value;
    }
  }
  EXPECT_TRUE(saw_index);
}

TEST(SymExec, JoinOfEqualValuesFromDifferentWritesGetsFreshGeneration) {
  // The first join leaves x = {0,1} with no expression, so c = x snapshots
  // x's own cell as its leaf. After the second join x is still {0,1}, but
  // `x = 1 - x` flipped it on one arm, so c no longer tells x's value.
  // Refining the merged cell through c's stale leaf would "prove" the
  // assert; a fresh generation at the join keeps it unproved.
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int x;
  int c;
  int s;
  s = nondet(2);
  if (s == 1) {
    x = 0;
  } else {
    x = 1;
  }
  c = x;
  s = nondet(2);
  if (s == 1) {
    x = 1 - x;
  }
  if (c == 1) {
    assert(x == 1);
  }
  r = UpTalkDown(x);
}
)esm") + kEchoDown,
                          /*allow_nondet=*/true);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  auto asserts = AssertSites(*up);
  ASSERT_EQ(asserts.size(), 1u);
  EXPECT_FALSE(asserts[0]->proved) << asserts[0]->value;
  EXPECT_FALSE(asserts[0]->always_fails) << asserts[0]->value;
}

TEST(SymExec, BudgetExhaustionLeavesSitesUnproved) {
  // A loop forces loop-head revisits (straight-line chains complete in one
  // visit), so a one-visit budget must abort and withhold every proof.
  analysis::sym::SymOptions options;
  options.max_block_visits = 1;
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  int i;
  i = 0;
  while (i < 4) {
    i = i + 1;
  }
  r = UpTalkDown(5);
  assert(r.r == 5);
}
)esm") + kEchoDown,
                          /*allow_nondet=*/false, options);
  const ModuleSummary* up = FindModuleSummary(out, "Up");
  ASSERT_NE(up, nullptr);
  EXPECT_FALSE(up->complete);
  EXPECT_FALSE(out.summary.AllProved());
}

// ---- sym-backed lint rules: triggering and silent cases --------------------

struct SymLintOutcome {
  analysis::AnalysisResult result;
  std::string rendered;
};

SymLintOutcome SymLint(const std::string& esm, const analysis::AnalysisOptions& options = {},
                       bool allow_nondet = false) {
  SymLintOutcome outcome;
  SymOutcome sym = RunSym(esm, allow_nondet);
  if (sym.comp == nullptr) {
    return outcome;
  }
  DiagnosticEngine diag;
  outcome.result = analysis::ReportSymFindings(*sym.comp, sym.summary, diag, options);
  outcome.rendered = diag.RenderAll();
  return outcome;
}

TEST(SymLintRules, AssertAlwaysTrueFiresOnTypeTautology) {
  SymLintOutcome out = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b;
  r = UpTalkDown(7);
  b = r.r;
  assert(b < 256);
  r = UpTalkDown(b);
}
)esm") + kEchoDown);
  EXPECT_GE(out.result.warnings, 1);
  EXPECT_NE(out.rendered.find("[assert-always-true]"), std::string::npos) << out.rendered;
}

TEST(SymLintRules, ContingentProvedAssertStaysSilent) {
  // Provable from the learned values but not from the types: a verification
  // success, not a spec smell.
  SymLintOutcome out = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(5);
  assert(r.r == 5);
}
)esm") + kEchoDown);
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
  EXPECT_EQ(out.result.errors, 0) << out.rendered;
}

TEST(SymLintRules, InfeasibleBranchFiresOnTypeLevelDeadArm) {
  SymLintOutcome out = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b;
  r = UpTalkDown(7);
  b = r.r;
  if (b > 300) {
    r = UpTalkDown(0);
  }
  r = UpTalkDown(b);
}
)esm") + kEchoDown);
  EXPECT_GE(out.result.warnings, 1);
  EXPECT_NE(out.rendered.find("[infeasible-branch]"), std::string::npos) << out.rendered;
  EXPECT_NE(out.rendered.find("operand types"), std::string::npos) << out.rendered;
}

TEST(SymLintRules, PeerDerivedDeadArmStaysSilent) {
  // The arm is dead only because THIS Down never sends 3 — the spec text is
  // live under other peers, so it is a configuration fact, not a finding.
  SymLintOutcome out = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
  if (r.r == 3) {
    r = UpTalkDown(0);
  }
  r = UpTalkDown(2);
}
)esm") + std::string(R"esm(
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm"));
  EXPECT_EQ(out.result.warnings, 0) << out.rendered;
  EXPECT_EQ(out.result.errors, 0) << out.rendered;
}

TEST(SymLintRules, WerrorEscalatesAndPragmaSuppresses) {
  analysis::AnalysisOptions werror;
  werror.werror = true;
  SymLintOutcome out = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b;
  r = UpTalkDown(7);
  b = r.r;
  assert(b < 256);
  r = UpTalkDown(b);
}
)esm") + kEchoDown,
                               werror);
  EXPECT_GE(out.result.errors, 1);
  EXPECT_FALSE(out.result.ok());

  SymLintOutcome suppressed = SymLint(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b;
  r = UpTalkDown(7);
  b = r.r;
#pragma esmlint suppress assert-always-true
  assert(b < 256);
  r = UpTalkDown(b);
}
)esm") + kEchoDown,
                                      werror);
  EXPECT_EQ(suppressed.result.errors, 0) << suppressed.rendered;
  EXPECT_EQ(suppressed.result.suppressed, 1);
}

// ---- golden summary rendering ----------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(EFEU_GOLDEN_DIR) + "/" + name;
}

void CompareOrUpdate(const std::string& name, const std::string& generated) {
  const std::string path = GoldenPath(name);
  if (std::getenv("EFEU_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << generated;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run `efeu_tests --update-goldens` to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(generated, golden.str())
      << "sym summary for " << name << " changed; if intended, refresh with "
      << "`efeu_tests --update-goldens` and commit the diff";
}

TEST(SymGolden, SummaryRenderingMatchesGolden) {
  // One spec touching every summary section: proved and unproved sites of
  // all three kinds, an infeasible branch, send facts, and path statistics
  // (counters are deterministic — the executor explores in program order).
  SymOutcome out = RunSym(std::string(R"esm(
void Up() {
  DownToUp r;
  byte b;
  int y;
  r = UpTalkDown(6);
  b = r.r;
  assert(b < 256);
  if (b > 300) {
    y = 1;
  } else {
    y = 12 / b;
  }
  r = UpTalkDown(y);
}
)esm") + kEchoDown);
  ASSERT_NE(out.comp, nullptr);
  CompareOrUpdate("sym_summary.txt",
                  analysis::sym::RenderSymSummary(*out.comp, out.summary));
}

// ---- shipped specifications ------------------------------------------------

// Named shipped compilations plus the objects that own them.
struct Shipped {
  std::vector<std::unique_ptr<ir::Compilation>> stacks;
  std::vector<std::unique_ptr<i2c::VerifierSystem>> i2c_verifiers;
  std::vector<std::unique_ptr<spi::SpiVerifierSystem>> spi_verifiers;
  // (name, compilation) in build order; points into the owners above.
  std::vector<std::pair<std::string, const ir::Compilation*>> compilations;
};

// The controller stack and its quirk variant, the responder stack and its
// KS0127 variant.
void AddDriverStacks(Shipped* out) {
  auto add = [out](const std::string& name, std::unique_ptr<ir::Compilation> comp,
                   const DiagnosticEngine& diag) {
    EXPECT_NE(comp, nullptr) << name << ":\n" << diag.RenderAll();
    if (comp != nullptr) {
      out->compilations.emplace_back(name, comp.get());
      out->stacks.push_back(std::move(comp));
    }
  };
  {
    DiagnosticEngine diag;
    add("controller", i2c::CompileControllerStack(diag), diag);
  }
  {
    DiagnosticEngine diag;
    i2c::ControllerStackOptions options;
    options.no_clock_stretching = true;
    options.ks0127_compat = true;
    add("controller-quirks", i2c::CompileControllerStack(diag, options), diag);
  }
  {
    DiagnosticEngine diag;
    add("responder", i2c::CompileResponderStack(diag), diag);
  }
  {
    DiagnosticEngine diag;
    i2c::ResponderStackOptions options;
    options.ks0127 = true;
    add("responder-ks0127", i2c::CompileResponderStack(diag, options), diag);
  }
}

// All ten I2C verifier mixes (each level over each abstraction it admits)
// and both SPI verifiers: 13 compilations, since the EepDriver mix over the
// full stack compiles each EEPROM's responder stack separately.
void AddVerifierMixes(Shipped* out) {
  using i2c::VerifyAbstraction;
  using i2c::VerifyLevel;
  struct Mix {
    const char* name;
    VerifyLevel level;
    VerifyAbstraction abstraction;
  };
  const Mix mixes[] = {
      {"i2c-symbol-none", VerifyLevel::kSymbol, VerifyAbstraction::kNone},
      {"i2c-byte-none", VerifyLevel::kByte, VerifyAbstraction::kNone},
      {"i2c-byte-symbol", VerifyLevel::kByte, VerifyAbstraction::kSymbol},
      {"i2c-txn-none", VerifyLevel::kTransaction, VerifyAbstraction::kNone},
      {"i2c-txn-symbol", VerifyLevel::kTransaction, VerifyAbstraction::kSymbol},
      {"i2c-txn-byte", VerifyLevel::kTransaction, VerifyAbstraction::kByte},
      {"i2c-eep-none", VerifyLevel::kEepDriver, VerifyAbstraction::kNone},
      {"i2c-eep-symbol", VerifyLevel::kEepDriver, VerifyAbstraction::kSymbol},
      {"i2c-eep-byte", VerifyLevel::kEepDriver, VerifyAbstraction::kByte},
      {"i2c-eep-txn", VerifyLevel::kEepDriver, VerifyAbstraction::kTransaction},
  };
  for (const Mix& mix : mixes) {
    i2c::VerifyConfig config;
    config.level = mix.level;
    config.abstraction = mix.abstraction;
    DiagnosticEngine diag;
    auto vs = i2c::BuildVerifier(config, diag);
    EXPECT_NE(vs, nullptr) << mix.name << ":\n" << diag.RenderAll();
    if (vs == nullptr) {
      continue;
    }
    const auto& comps = vs->compilations();
    for (size_t c = 0; c < comps.size(); ++c) {
      std::string name = mix.name;
      if (comps.size() > 1) {
        name += "#" + std::to_string(c);
      }
      out->compilations.emplace_back(name, comps[c].get());
    }
    out->i2c_verifiers.push_back(std::move(vs));
  }
  const std::pair<const char*, spi::SpiVerifyLevel> spi_levels[] = {
      {"spi-byte", spi::SpiVerifyLevel::kByte},
      {"spi-driver", spi::SpiVerifyLevel::kDriver},
  };
  for (const auto& [name, level] : spi_levels) {
    spi::SpiVerifyConfig config;
    config.level = level;
    DiagnosticEngine diag;
    auto vs = spi::BuildSpiVerifier(config, diag);
    EXPECT_NE(vs, nullptr) << name << ":\n" << diag.RenderAll();
    if (vs != nullptr) {
      out->compilations.emplace_back(name, vs->compilation_.get());
      out->spi_verifiers.push_back(std::move(vs));
    }
  }
}

void ExpectSymClean(const ir::Compilation& comp, const std::string& what) {
  CompilationSummary summary = analysis::sym::AnalyzeCompilationSym(comp);
  DiagnosticEngine diag;
  analysis::AnalysisOptions options;
  options.werror = true;
  analysis::AnalysisResult result = analysis::ReportSymFindings(comp, summary, diag, options);
  EXPECT_EQ(result.errors, 0) << what << ":\n" << diag.RenderAll();
  EXPECT_EQ(result.warnings, 0) << what << ":\n" << diag.RenderAll();
  EXPECT_EQ(result.suppressed, 0) << what << ": shipped specs must not need sym suppressions";
}

TEST(ShippedSpecsSym, DriverStacksAreCleanUnderWerror) {
  Shipped shipped;
  AddDriverStacks(&shipped);
  EXPECT_EQ(shipped.compilations.size(), 4u);
  for (const auto& [name, comp] : shipped.compilations) {
    ExpectSymClean(*comp, name);
  }
}

TEST(ShippedSpecsSym, VerifierMixesAreCleanUnderWerror) {
  Shipped shipped;
  AddVerifierMixes(&shipped);
  EXPECT_EQ(shipped.compilations.size(), 13u);
  for (const auto& [name, comp] : shipped.compilations) {
    ExpectSymClean(*comp, name);
  }
}

TEST(SymGolden, ShippedSpecsMatchGolden) {
  // Every shipped compilation's rendered summary and round count: host-time
  // optimizations of the executor must leave all of it byte-identical.
  Shipped shipped;
  AddDriverStacks(&shipped);
  AddVerifierMixes(&shipped);
  ASSERT_EQ(shipped.compilations.size(), 17u);
  std::string rendered;
  for (const auto& [name, comp] : shipped.compilations) {
    CompilationSummary summary = analysis::sym::AnalyzeCompilationSym(*comp);
    rendered += "== " + name + " rounds=" + std::to_string(summary.rounds) + "\n" +
                analysis::sym::RenderSymSummary(*comp, summary);
  }
  CompareOrUpdate("sym_shipped_specs.txt", rendered);
}

TEST(ShippedSpecsSym, UnchangedReceiveFactsReuseModuleSummaries) {
  // A module whose receive facts equal those of its previous run reuses that
  // run's summary (the golden above shows the reuse changes nothing). A key
  // that never matched would rerun every module every round; one that
  // matched less often (say, by also comparing the facts of the channels a
  // module sends on) would raise the total recorded when the reuse landed.
  Shipped shipped;
  AddDriverStacks(&shipped);
  AddVerifierMixes(&shipped);
  int runs = 0;
  int module_rounds = 0;
  for (const auto& [name, comp] : shipped.compilations) {
    CompilationSummary summary = analysis::sym::AnalyzeCompilationSym(*comp);
    const int modules = static_cast<int>(comp->modules().size());
    EXPECT_GE(summary.module_runs, modules) << name;
    EXPECT_LE(summary.module_runs, summary.rounds * modules) << name;
    if (name == "responder") {
      EXPECT_LT(summary.module_runs, summary.rounds * modules);
    }
    runs += summary.module_runs;
    module_rounds += summary.rounds * modules;
  }
  EXPECT_EQ(module_rounds, 276);
  EXPECT_EQ(runs, 213);
}

}  // namespace
}  // namespace efeu
