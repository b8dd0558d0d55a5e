// The abstract value domain of esmsym (src/analysis/sym): a bitvector
// interval joined with a congruence (value == res mod m) and an optional
// exact small value set. The interval part reuses the esmlint dataflow
// lattice (src/analysis/dataflow.h) so both analyses agree on truncation and
// operator transfer; the congruence part survives u8/i16 wraparound exactly
// (truncation to a 2^w storage is itself a congruence), which is what makes
// the domain precise at the enum-promotion and truncation corners the
// differential fuzzer caught in the C backend.
//
// Every SymVal additionally carries an `assumed` taint: true when the value
// (transitively) depends on an ESI channel contract that was assumed for an
// external sender rather than derived from compiled code. Proof consumers
// that must be unconditionally sound (lint findings, monitor-bound
// discharge) require untainted values; see DESIGN.md "Symbolic execution".

#ifndef SRC_ANALYSIS_SYM_DOMAIN_H_
#define SRC_ANALYSIS_SYM_DOMAIN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/dataflow.h"
#include "src/esm/ast.h"
#include "src/ir/ir.h"

namespace efeu::analysis::sym {

// Largest exact value set tracked; joins beyond this collapse to the
// interval + congruence hull. Eight covers every enum in the shipped specs
// and the fault/reset nondet arities with room to spare.
inline constexpr int kMaxSetSize = 8;

// A sorted, duplicate-free set of at most kMaxSetSize values, stored inline
// so that SymVal (and with it a whole executor frame) copies without touching
// the heap. Slots past size() are unspecified and never take part in a
// comparison.
class ValueSet {
 public:
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const int32_t* begin() const { return vals_; }
  const int32_t* end() const { return vals_ + size_; }
  int32_t front() const { return vals_[0]; }
  int32_t back() const { return vals_[size_ - 1]; }
  int32_t operator[](int i) const { return vals_[i]; }
  bool Contains(int32_t v) const { return std::binary_search(begin(), end(), v); }

  // `vals[0, n)` must be sorted and duplicate-free, with 1 <= n <= kMaxSetSize.
  void Assign(const int32_t* vals, int n) {
    std::copy(vals, vals + n, vals_);
    size_ = n;
  }

  bool operator==(const ValueSet& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  int32_t vals_[kMaxSetSize] = {};
  int32_t size_ = 0;
};

// One abstract int32 value.
//
// Congruence encoding (the classic lattice): mod == 0 means the value is
// exactly `res`; mod == 1 means no congruence information; mod == m > 1
// means value == res (mod m) with 0 <= res < m.
//
// Invariant: a value that carries a set is in FromSet canonical form — its
// interval is [min, max] of the set and its congruence is the gcd chain over
// the members — so two set-carrying values with equal sets differ at most in
// the taint. Every constructor and transfer function below keeps it. Values
// without a set have no canonical form (Widen, for one, returns its hull
// uncanonicalized).
struct SymVal {
  Interval interval = Interval::Exact(0);
  int64_t mod = 0;
  int64_t res = 0;
  // Non-empty when tracked; empty means "set not tracked" (the
  // interval/congruence hull is then the only bound).
  ValueSet values;
  bool assumed = false;

  static SymVal Exact(int32_t v);
  static SymVal FromInterval(const Interval& iv);
  // From an arbitrary (possibly unsorted, duplicated) value list; collapses
  // to the hull when the set exceeds kMaxSetSize. The transfer functions
  // build their sets in stack buffers instead; this is the entry point for
  // callers outside the domain.
  static SymVal FromSet(std::vector<int32_t> vals);
  // Everything `type`'s storage admits after truncation.
  static SymVal Storage(const Type& type);
  static SymVal Top();

  bool HasSet() const { return !values.empty(); }
  bool IsExact() const { return interval.IsExact(); }
  bool Contains(int64_t v) const;
  bool DefinitelyZero() const;
  bool DefinitelyNonZero() const;
  // Every concrete value admitted by *this is admitted by `other` (and the
  // taint does not weaken: an assumed value is never subsumed by a sound
  // one).
  bool SubsumedBy(const SymVal& other) const;

  // Re-derives the cheapest consistent form: synthesizes a value set from a
  // small interval filtered through the congruence, tightens the interval
  // and congruence from the set, drops redundant congruences.
  void Canonicalize();

  bool operator==(const SymVal& other) const {
    return interval == other.interval && mod == other.mod && res == other.res &&
           values == other.values && assumed == other.assumed;
  }

  // Compact rendering for dumps and goldens: "0", "{0,2}", "[0,255]",
  // "[0,254] mod2=0"; assumed values carry a trailing "?".
  std::string ToString() const;
};

static_assert(std::is_trivially_copyable_v<SymVal>);

// Greatest common divisor of |a| and |b| (binary, no division); Gcd(x, 0)
// is |x|. Builds every congruence of the domain.
int64_t Gcd(int64_t a, int64_t b);

// Lattice join (set union while small, hulls otherwise). Two set-carrying
// operands with equal sets join to the operand itself, taints OR'ed; two
// equal set-less operands join to the operand canonicalized, which is not
// always the operand (a widened bool [0,1] joins to {0,1}).
SymVal Join(const SymVal& a, const SymVal& b);

// True when Join(into, from) and Widen(into, from, storage) both return
// `into` itself: the two carry the same set (so, being canonical, the same
// value up to the taint) and `from` adds no taint. Join points skip the full
// join on it; set-less operands never qualify (see Join).
inline bool JoinKeeps(const SymVal& into, const SymVal& from) {
  return into.HasSet() && into.values == from.values && (into.assumed || !from.assumed);
}

// Abstract transfer of Type::Truncate: exact pointwise on sets, interval via
// TruncateInterval, congruence via gcd with the storage modulus 2^w (u8 and
// i16 truncation are reductions mod 256 / 65536 up to sign; bit/bool
// normalization keeps a congruence only for exact values).
SymVal Truncate(const SymVal& v, const Type& type);

SymVal EvalUnOp(esm::UnaryOp op, const SymVal& a);
// Mirrors ir::EvalBinOp's partial semantics: combos that fail (division by
// zero) contribute no value. `may_fail`, when non-null, is set to true iff
// some admitted operand pair fails.
SymVal EvalBinOp(esm::BinaryOp op, const SymVal& a, const SymVal& b, bool* may_fail = nullptr);

// Widening for loop heads: where `next` grew beyond `prev`, the interval
// jumps straight to the `storage` hull (frames hold truncated storage
// values, so that hull is sound) and the set is dropped; congruences join
// normally (gcd chains are logarithmic, they converge on their own).
SymVal Widen(const SymVal& prev, const SymVal& next, const Interval& storage);

// Intersection-style refinement: the values of `v` also admitted by `by`
// (used when a branch proves a leaf lies in `by`). Returns `v` unchanged
// when the intersection would be empty (refinement is advisory, never a
// feasibility claim on its own).
SymVal Refine(const SymVal& v, const SymVal& by);

// Carves the single value `x` out of `v` where the domain can express the
// exclusion exactly: a tracked set drops the member, an interval endpoint
// equal to `x` tightens by one. Anywhere else (x strictly inside an interval)
// the exclusion is not representable and `v` returns unchanged. Used for the
// arm-local strengthening of a branch or assert condition: on the nonzero arm
// the condition cell itself excludes 0 even when the cell is not a leaf of
// its own defining expression (the short-circuit `||` lowering joins such
// cells directly).
SymVal ExcludeValue(const SymVal& v, int32_t x);

}  // namespace efeu::analysis::sym

#endif  // SRC_ANALYSIS_SYM_DOMAIN_H_
