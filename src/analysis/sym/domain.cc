#include "src/analysis/sym/domain.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <utility>

#include "src/ir/opcode_info.h"

namespace efeu::analysis::sym {

namespace {

// Mathematical (always non-negative) residue.
int64_t Residue(int64_t v, int64_t m) {
  if (m <= 0) {
    return v;
  }
  int64_t r = v % m;
  return r < 0 ? r + m : r;
}

// Joins two congruences (mod == 0 is "exactly res", mod == 1 is top).
void JoinCongruence(int64_t ma, int64_t ra, int64_t mb, int64_t rb, int64_t* m_out,
                    int64_t* r_out) {
  int64_t m = Gcd(Gcd(ma, mb), ra - rb);
  *m_out = m;
  *r_out = Residue(ra, m);
}

bool CongruenceAdmits(int64_t m, int64_t r, int64_t v) {
  if (m == 0) {
    return v == r;
  }
  if (m == 1) {
    return true;
  }
  return Residue(v, m) == r;
}

// Conservative limit on interval sizes we are willing to enumerate when
// deriving sets or checking subsumption structurally. Also the size of the
// candidate buffer EvalBinOp fills pointwise, which must hold the full
// cross product of two tracked sets.
constexpr int64_t kEnumerationLimit = 64;
static_assert(kMaxSetSize * kMaxSetSize <= kEnumerationLimit);

// The congruence of the sorted `vals[0, n)`, n >= 1: the gcd of the
// members' distances to the minimum (0 for one member, exact), with the
// minimum's residue. Equal to joining the members' exact congruences one by
// one, without a division per member.
void SetCongruence(const int32_t* vals, int n, int64_t* mod, int64_t* res) {
  int64_t m = 0;
  for (int i = 1; i < n && m != 1; ++i) {
    m = Gcd(m, int64_t{vals[i]} - vals[0]);
  }
  *mod = m;
  *res = Residue(vals[0], m);
}

// The canonical value of the sorted, duplicate-free `vals[0, n)`, n >= 1.
SymVal FromSorted(const int32_t* vals, int n) {
  SymVal out;
  out.interval = Interval::Of(vals[0], vals[n - 1]);
  // The congruence of a set is cheap and worth keeping even when the set
  // itself is too big to track.
  SetCongruence(vals, n, &out.mod, &out.res);
  if (n <= kMaxSetSize) {
    out.values.Assign(vals, n);
  }
  return out;
}

// The canonical value of the `n` values at `vals`, in any order and possibly
// duplicated (sorted in place); Top when there are none.
SymVal SetOf(int32_t* vals, int n) {
  if (n == 0) {
    return SymVal::Top();
  }
  std::sort(vals, vals + n);
  return FromSorted(vals, static_cast<int>(std::unique(vals, vals + n) - vals));
}

}  // namespace

int64_t Gcd(int64_t a, int64_t b) {
  uint64_t x = a < 0 ? 0 - static_cast<uint64_t>(a) : static_cast<uint64_t>(a);
  uint64_t y = b < 0 ? 0 - static_cast<uint64_t>(b) : static_cast<uint64_t>(b);
  if (x == 0 || y == 0) {
    return static_cast<int64_t>(x | y);
  }
  const int shift = std::countr_zero(x | y);
  x >>= std::countr_zero(x);
  do {
    y >>= std::countr_zero(y);
    if (x > y) {
      std::swap(x, y);
    }
    y -= x;
  } while (y != 0);
  return static_cast<int64_t>(x << shift);
}

SymVal SymVal::Exact(int32_t v) {
  SymVal out;
  out.interval = Interval::Exact(v);
  out.mod = 0;
  out.res = v;
  out.values.Assign(&v, 1);
  return out;
}

SymVal SymVal::FromInterval(const Interval& iv) {
  SymVal out;
  out.interval = iv;
  out.mod = 1;
  out.res = 0;
  out.Canonicalize();
  return out;
}

SymVal SymVal::FromSet(std::vector<int32_t> vals) {
  return SetOf(vals.data(), static_cast<int>(vals.size()));
}

SymVal SymVal::Storage(const Type& type) {
  // Bit/bool storage is [0,1], which canonicalizes to the set {0,1}.
  return FromInterval(Interval::Storage(type));
}

SymVal SymVal::Top() {
  SymVal out;
  out.interval = Interval::Full();
  out.mod = 1;
  out.res = 0;
  return out;
}

bool SymVal::Contains(int64_t v) const {
  if (!interval.Contains(v)) {
    return false;
  }
  if (!CongruenceAdmits(mod, res, v)) {
    return false;
  }
  return !HasSet() || values.Contains(static_cast<int32_t>(v));
}

bool SymVal::DefinitelyZero() const {
  return interval.DefinitelyZero();
}

bool SymVal::DefinitelyNonZero() const {
  return interval.DefinitelyNonZero() || !Contains(0);
}

bool SymVal::SubsumedBy(const SymVal& other) const {
  // The taint is part of the lattice: merging an assumed value into a sound
  // one must not lose the taint.
  if (assumed && !other.assumed) {
    return false;
  }
  if (HasSet()) {
    for (int32_t v : values) {
      if (!other.Contains(v)) {
        return false;
      }
    }
    return true;
  }
  int64_t width = interval.hi - interval.lo;
  if (width < kEnumerationLimit) {
    for (int64_t v = interval.lo; v <= interval.hi; ++v) {
      if (CongruenceAdmits(mod, res, v) && !other.Contains(v)) {
        return false;
      }
    }
    return true;
  }
  if (other.HasSet()) {
    return false;  // A big interval never fits a small set.
  }
  if (interval.lo < other.interval.lo || interval.hi > other.interval.hi) {
    return false;
  }
  // Does our congruence imply theirs?
  if (other.mod == 1) {
    return true;
  }
  if (other.mod == 0) {
    return false;  // We are wide, they are exact.
  }
  if (mod == 0) {
    return CongruenceAdmits(other.mod, other.res, res);
  }
  if (mod == 1) {
    return false;
  }
  return mod % other.mod == 0 && Residue(res, other.mod) == other.res;
}

void SymVal::Canonicalize() {
  if (HasSet()) {
    interval = Interval::Of(values.front(), values.back());
    SetCongruence(values.begin(), values.size(), &mod, &res);
    return;
  }
  if (mod == 0) {
    // Exact by congruence; reconcile toward the interval when they disagree
    // (never happens for transfer results, but keeps the invariant simple).
    if (!interval.Contains(res)) {
      mod = 1;
      res = 0;
    } else {
      interval = Interval::Exact(res);
      const int32_t v = static_cast<int32_t>(res);
      values.Assign(&v, 1);
      return;
    }
  }
  res = Residue(res, mod);
  int64_t width = interval.hi - interval.lo;
  if (width < kEnumerationLimit) {
    int32_t vals[kMaxSetSize];
    int n = 0;
    for (int64_t v = interval.lo; v <= interval.hi; ++v) {
      if (CongruenceAdmits(mod, res, v)) {
        if (n == kMaxSetSize) {
          return;
        }
        vals[n++] = static_cast<int32_t>(v);
      }
    }
    if (n > 0) {
      bool keep_assumed = assumed;
      *this = FromSorted(vals, n);
      assumed = keep_assumed;
    }
  }
}

std::string SymVal::ToString() const {
  std::string out;
  if (HasSet()) {
    if (values.size() == 1) {
      out = std::to_string(values[0]);
    } else {
      out = "{";
      for (int i = 0; i < values.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += std::to_string(values[i]);
      }
      out += "}";
    }
  } else {
    out = "[" + std::to_string(interval.lo) + "," + std::to_string(interval.hi) + "]";
    if (mod > 1) {
      out += " mod" + std::to_string(mod) + "=" + std::to_string(res);
    }
  }
  if (assumed) {
    out += "?";
  }
  return out;
}

SymVal Join(const SymVal& a, const SymVal& b) {
  SymVal out;
  if (a.HasSet() && b.HasSet()) {
    if (a.values == b.values) {
      // Both operands are in canonical form (see SymVal), so equal sets mean
      // equal values up to the taint.
      out = a;
    } else {
      int32_t merged[2 * kMaxSetSize];
      int32_t* end = std::set_union(a.values.begin(), a.values.end(), b.values.begin(),
                                    b.values.end(), merged);
      out = FromSorted(merged, static_cast<int>(end - merged));
    }
  } else if (!a.HasSet() && !b.HasSet() && a.interval == b.interval && a.mod == b.mod &&
             a.res == b.res) {
    // The hull of two equal hulls is the hull itself, canonicalized.
    out = a;
    out.Canonicalize();
  } else {
    out.interval = Join(a.interval, b.interval);
    JoinCongruence(a.mod, a.res, b.mod, b.res, &out.mod, &out.res);
    out.Canonicalize();
  }
  out.assumed = a.assumed || b.assumed;
  return out;
}

SymVal Truncate(const SymVal& v, const Type& type) {
  if (v.HasSet()) {
    int32_t vals[kMaxSetSize];
    int n = 0;
    for (int32_t x : v.values) {
      vals[n++] = type.Truncate(x);
    }
    SymVal out = SetOf(vals, n);
    out.assumed = v.assumed;
    return out;
  }
  SymVal out;
  out.assumed = v.assumed;
  out.interval = TruncateInterval(v.interval, type);
  if (type.IsBoolish()) {
    // Normalization to 0/1 is not modular; no congruence survives.
    out.mod = 1;
    out.res = 0;
  } else {
    // u8/i16/enum truncation is a reduction mod 2^w (up to sign extension,
    // which preserves residues mod 2^w), so the congruence survives as
    // gcd(m, 2^w). i32 passes through untouched.
    int width = type.BitWidth();
    if (width >= 32) {
      out.mod = v.mod;
      out.res = v.res;
    } else {
      int64_t storage_mod = int64_t{1} << width;
      out.mod = Gcd(v.mod == 0 ? storage_mod : v.mod, storage_mod);
      out.res = Residue(v.mod == 0 ? v.res : v.res, out.mod);
    }
  }
  out.Canonicalize();
  return out;
}

SymVal EvalUnOp(esm::UnaryOp op, const SymVal& a) {
  if (a.HasSet()) {
    int32_t vals[kMaxSetSize];
    int n = 0;
    for (int32_t x : a.values) {
      vals[n++] = ir::EvalUnOp(op, x);
    }
    SymVal out = SetOf(vals, n);
    out.assumed = a.assumed;
    return out;
  }
  SymVal out;
  out.assumed = a.assumed;
  out.interval = EvalUnOpInterval(op, a.interval);
  switch (op) {
    case esm::UnaryOp::kPlus:
      out.mod = a.mod;
      out.res = a.res;
      break;
    case esm::UnaryOp::kNegate:
      out.mod = a.mod;
      out.res = Residue(-a.res, a.mod);
      break;
    case esm::UnaryOp::kBitNot:
      // ~x == -x - 1, which is modular.
      out.mod = a.mod;
      out.res = Residue(-a.res - 1, a.mod);
      break;
    case esm::UnaryOp::kLogicalNot:
      out.mod = 1;
      out.res = 0;
      break;
  }
  out.Canonicalize();
  return out;
}

SymVal EvalBinOp(esm::BinaryOp op, const SymVal& a, const SymVal& b, bool* may_fail) {
  bool divides = op == esm::BinaryOp::kDiv || op == esm::BinaryOp::kMod;
  if (may_fail != nullptr && divides && b.Contains(0)) {
    *may_fail = true;
  }
  if (a.HasSet() && b.HasSet()) {
    int32_t vals[kEnumerationLimit];
    int n = 0;
    for (int32_t x : a.values) {
      for (int32_t y : b.values) {
        int32_t r = 0;
        if (ir::EvalBinOp(op, x, y, &r)) {
          vals[n++] = r;
        }
      }
    }
    if (n > 0) {
      SymVal out = SetOf(vals, n);
      out.assumed = a.assumed || b.assumed;
      return out;
    }
    // Every combination fails (division by zero on all paths): there is no
    // result value; stay conservative for any downstream use.
    SymVal out = SymVal::Top();
    out.assumed = a.assumed || b.assumed;
    return out;
  }
  SymVal out;
  out.assumed = a.assumed || b.assumed;
  out.interval = EvalBinOpInterval(op, a.interval, b.interval);
  out.mod = 1;
  out.res = 0;
  switch (op) {
    case esm::BinaryOp::kAdd:
      out.mod = Gcd(a.mod, b.mod);
      out.res = Residue(a.res + b.res, out.mod);
      break;
    case esm::BinaryOp::kSub:
      out.mod = Gcd(a.mod, b.mod);
      out.res = Residue(a.res - b.res, out.mod);
      break;
    case esm::BinaryOp::kMul:
      if (a.mod == 0 && b.mod == 0) {
        out.mod = 0;
        out.res = a.res * b.res;
      } else if (a.mod == 0 || b.mod == 0) {
        // x * c with x == r (mod m): result == r*c (mod m*|c|).
        int64_t c = a.mod == 0 ? a.res : b.res;
        int64_t m = a.mod == 0 ? b.mod : a.mod;
        int64_t r = a.mod == 0 ? b.res : a.res;
        int64_t ac = c < 0 ? -c : c;
        if (ac != 0 && m > 1 && m <= (int64_t{1} << 20) && ac <= (int64_t{1} << 20)) {
          out.mod = m * ac;
          out.res = Residue(r * c, out.mod);
        } else if (ac != 0 && m == 1) {
          out.mod = ac;
          out.res = 0;  // x*c == 0 (mod |c|) for any x.
        } else if (ac == 0) {
          out.mod = 0;
          out.res = 0;
        }
      } else if (a.mod > 1 && b.mod > 1 && a.mod <= (int64_t{1} << 16) &&
                 b.mod <= (int64_t{1} << 16)) {
        out.mod = Gcd(Gcd(a.mod * b.mod, a.mod * b.res), b.mod * a.res);
        out.res = Residue(a.res * b.res, out.mod);
      }
      break;
    case esm::BinaryOp::kShl:
      if (b.mod == 0 && b.res >= 0 && b.res < 32) {
        int64_t factor = int64_t{1} << b.res;
        if (a.mod == 0) {
          out.mod = 0;
          out.res = a.res * factor;
        } else if (a.mod >= 1 && a.mod * factor <= (int64_t{1} << 31)) {
          out.mod = a.mod == 1 ? factor : a.mod * factor;
          out.res = Residue(a.res * factor, out.mod);
        }
      }
      break;
    case esm::BinaryOp::kEq:
    case esm::BinaryOp::kNe: {
      // The interval transfer already decides overlap; add the congruence
      // disjointness it cannot see (e.g. even vs odd).
      int64_t g = Gcd(a.mod, b.mod);
      bool congruence_disjoint = (g == 0 && a.res != b.res) ||
                                 (g > 1 && Residue(a.res, g) != Residue(b.res, g));
      if (congruence_disjoint) {
        out = SymVal::Exact(op == esm::BinaryOp::kEq ? 0 : 1);
        out.assumed = a.assumed || b.assumed;
        return out;
      }
      break;
    }
    default:
      break;
  }
  if (out.interval.hi > out.interval.lo &&
      out.interval.hi - out.interval.lo >= (int64_t{1} << 33)) {
    // The interval transfer saturated (overflow hull); a congruence derived
    // from non-wrapped arithmetic would be unsound past int32 wraparound.
    out.mod = 1;
    out.res = 0;
  }
  out.Canonicalize();
  return out;
}

SymVal Widen(const SymVal& prev, const SymVal& next, const Interval& storage) {
  SymVal joined = Join(prev, next);
  if (joined.SubsumedBy(prev)) {
    return prev;
  }
  SymVal out;
  out.assumed = joined.assumed;
  out.mod = joined.mod;
  out.res = joined.res;
  int64_t lo = joined.interval.lo;
  int64_t hi = joined.interval.hi;
  if (lo < prev.interval.lo) {
    lo = lo >= storage.lo ? storage.lo : Interval::Full().lo;
  }
  if (hi > prev.interval.hi) {
    hi = hi <= storage.hi ? storage.hi : Interval::Full().hi;
  }
  out.interval = Interval::Of(lo, hi);
  // No set: a set that changed under join would just be re-derived and grow
  // again next round; the interval/congruence hull is the stable form.
  if (out.mod == 0 && !(out.interval.IsExact() && out.interval.lo == out.res)) {
    out.mod = 1;
    out.res = 0;
  }
  return out;
}

SymVal Refine(const SymVal& v, const SymVal& by) {
  if (v.HasSet()) {
    int32_t vals[kMaxSetSize];
    int n = 0;
    for (int32_t x : v.values) {
      if (by.Contains(x)) {
        vals[n++] = x;
      }
    }
    if (n == 0 || n == v.values.size()) {
      return v;
    }
    SymVal out = FromSorted(vals, n);
    out.assumed = v.assumed || by.assumed;
    return out;
  }
  if (!v.interval.Intersects(by.interval)) {
    return v;
  }
  SymVal out = v;
  out.assumed = v.assumed || by.assumed;
  out.interval = Interval::Of(std::max(v.interval.lo, by.interval.lo),
                              std::min(v.interval.hi, by.interval.hi));
  if (out.mod == 1 && by.mod != 1) {
    out.mod = by.mod;
    out.res = by.res;
  }
  out.Canonicalize();
  return out;
}

SymVal ExcludeValue(const SymVal& v, int32_t x) {
  if (v.HasSet()) {
    int32_t vals[kMaxSetSize];
    int n = 0;
    for (int32_t y : v.values) {
      if (y != x) {
        vals[n++] = y;
      }
    }
    if (n == 0 || n == v.values.size()) {
      return v;
    }
    SymVal out = FromSorted(vals, n);
    out.assumed = v.assumed;
    return out;
  }
  SymVal out = v;
  if (v.interval.lo == x && v.interval.hi > x) {
    out.interval = Interval::Of(static_cast<int64_t>(x) + 1, v.interval.hi);
  } else if (v.interval.hi == x && v.interval.lo < x) {
    out.interval = Interval::Of(v.interval.lo, static_cast<int64_t>(x) - 1);
  } else {
    return v;
  }
  out.Canonicalize();
  return out;
}

}  // namespace efeu::analysis::sym
