#include "src/analysis/sym/solver.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ir/opcode_info.h"

namespace efeu::analysis::sym {

ExprPtr Expr::Leaf(int record, uint64_t gen, SymVal val, Type type, bool refinable) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLeaf;
  e->record = record;
  e->gen = gen;
  e->leaf_val = std::move(val);
  e->leaf_type = std::move(type);
  e->refinable = refinable;
  return e;
}

ExprPtr Expr::Const(int32_t v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->cval = v;
  return e;
}

ExprPtr Expr::Un(esm::UnaryOp op, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUn;
  e->un = op;
  e->size = 1 + (a != nullptr ? a->size : 0);
  e->a = std::move(a);
  return e;
}

ExprPtr Expr::Bin(esm::BinaryOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBin;
  e->bin = op;
  e->size = 1 + (a != nullptr ? a->size : 0) + (b != nullptr ? b->size : 0);
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

ExprPtr Expr::Trunc(Type type, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kTrunc;
  e->trunc_type = std::move(type);
  e->size = 1 + (a != nullptr ? a->size : 0);
  e->a = std::move(a);
  return e;
}

namespace {

using LeafKey = std::pair<int, uint64_t>;  // (record, generation)

void CollectLeaves(const ExprPtr& e, std::map<LeafKey, const Expr*>* leaves) {
  if (e == nullptr) {
    return;
  }
  if (e->kind == Expr::Kind::kLeaf) {
    leaves->emplace(LeafKey{e->record, e->gen}, e.get());
    return;
  }
  CollectLeaves(e->a, leaves);
  CollectLeaves(e->b, leaves);
}

// Exact scalar evaluation under an assignment of leaf values, with the IR's
// partial semantics: returns false on division by zero.
bool ConcreteEval(const Expr* e, const std::map<LeafKey, int32_t>& assignment, int32_t* out) {
  switch (e->kind) {
    case Expr::Kind::kConst:
      *out = e->cval;
      return true;
    case Expr::Kind::kLeaf:
      *out = assignment.at(LeafKey{e->record, e->gen});
      return true;
    case Expr::Kind::kUn: {
      int32_t a = 0;
      if (!ConcreteEval(e->a.get(), assignment, &a)) {
        return false;
      }
      *out = ir::EvalUnOp(e->un, a);
      return true;
    }
    case Expr::Kind::kBin: {
      int32_t a = 0;
      int32_t b = 0;
      if (!ConcreteEval(e->a.get(), assignment, &a) ||
          !ConcreteEval(e->b.get(), assignment, &b)) {
        return false;
      }
      return ir::EvalBinOp(e->bin, a, b, out);
    }
    case Expr::Kind::kTrunc: {
      int32_t a = 0;
      if (!ConcreteEval(e->a.get(), assignment, &a)) {
        return false;
      }
      *out = e->trunc_type.Truncate(a);
      return true;
    }
  }
  return false;
}

// The candidate values a type's storage admits, or empty when too many to
// enumerate (i16/i32).
std::vector<int32_t> StorageCandidates(const Type& type) {
  if (type.IsBoolish()) {
    return {0, 1};
  }
  if (type.BitWidth() == 8) {
    std::vector<int32_t> vals(256);
    for (int i = 0; i < 256; ++i) {
      vals[i] = i;
    }
    return vals;
  }
  return {};
}

struct Enumeration {
  std::vector<const Expr*> leaves;
  std::vector<std::vector<int32_t>> candidates;
  int64_t combos = 0;
};

// Prepares pointwise enumeration over `e`'s distinct leaves; returns false
// when some leaf has no tracked set or the cross product exceeds `limit`.
bool PrepareEnumeration(const ExprPtr& e, int64_t limit, Enumeration* out) {
  std::map<LeafKey, const Expr*> leaves;
  CollectLeaves(e, &leaves);
  if (static_cast<int>(leaves.size()) > kMaxExprLeaves) {
    return false;
  }
  out->combos = 1;
  for (const auto& [key, leaf] : leaves) {
    const ValueSet& values = leaf->leaf_val.values;
    if (values.empty()) {
      return false;
    }
    std::vector<int32_t> candidates(values.begin(), values.end());
    out->combos *= static_cast<int64_t>(candidates.size());
    if (out->combos > limit) {
      return false;
    }
    out->leaves.push_back(leaf);
    out->candidates.push_back(std::move(candidates));
  }
  return true;
}

// Enumeration variables for the storage (type-level) verdict. A variable is
// preferably a bare leaf (exact), but when a subtree below a Trunc contains a
// leaf whose storage is too wide to enumerate (i16/i32), the Trunc node
// itself becomes the variable: truncation to any storage is surjective onto
// that storage's value range, so enumerating the trunc's *outputs* is still
// sound for always-true/always-false claims — this is what makes the
// ubiquitous `assert(b < 256)` idiom (lowered as Trunc(u8, wide-expr) < 256)
// decidable at the type level. Structurally identical trunc-of-leaf nodes
// share one variable; truncs of larger subtrees are keyed by node identity,
// which treats repeated occurrences as independent — a superset of the real
// joint valuations, so "always" verdicts stay sound and only precision is
// lost.
struct StorageVars {
  std::vector<std::vector<int32_t>> candidates;
  // Every DAG node bound to each variable (aliases share the assignment).
  std::vector<std::vector<const Expr*>> nodes;
  // (tag, record, gen) -> var index; tag 0 = bare leaf, else the trunc
  // storage kind + 1 for trunc-of-leaf sharing.
  std::map<std::tuple<int, int, uint64_t>, size_t> keyed;
  bool has_program_leaf = false;
};

void AddStorageVar(const std::tuple<int, int, uint64_t>* key, std::vector<int32_t> candidates,
                   const Expr* node, StorageVars* out) {
  if (key != nullptr) {
    auto it = out->keyed.find(*key);
    if (it != out->keyed.end()) {
      out->nodes[it->second].push_back(node);
      return;
    }
    out->keyed.emplace(*key, out->candidates.size());
  }
  out->candidates.push_back(std::move(candidates));
  out->nodes.push_back({node});
}

bool CollectStorageVars(const ExprPtr& e, StorageVars* out) {
  if (e == nullptr) {
    return true;
  }
  switch (e->kind) {
    case Expr::Kind::kConst:
      return true;
    case Expr::Kind::kUn:
    case Expr::Kind::kBin:
      return CollectStorageVars(e->a, out) && CollectStorageVars(e->b, out);
    case Expr::Kind::kLeaf: {
      out->has_program_leaf = true;
      std::vector<int32_t> candidates = StorageCandidates(e->leaf_type);
      if (candidates.empty()) {
        return false;
      }
      std::tuple<int, int, uint64_t> key{0, e->record, e->gen};
      AddStorageVar(&key, std::move(candidates), e.get(), out);
      return true;
    }
    case Expr::Kind::kTrunc: {
      // Prefer the exact route: variables beneath the trunc, the trunc
      // itself evaluated faithfully.
      StorageVars scratch = *out;
      if (CollectStorageVars(e->a, &scratch)) {
        *out = std::move(scratch);
        return true;
      }
      std::vector<int32_t> candidates = StorageCandidates(e->trunc_type);
      if (candidates.empty()) {
        return false;
      }
      // The child failed to collect, so a real (non-enumerable) program leaf
      // lives below this node.
      out->has_program_leaf = true;
      if (e->a != nullptr && e->a->kind == Expr::Kind::kLeaf) {
        std::tuple<int, int, uint64_t> key{1 + static_cast<int>(e->trunc_type.kind),
                                           e->a->record, e->a->gen};
        AddStorageVar(&key, std::move(candidates), e.get(), out);
      } else {
        AddStorageVar(nullptr, std::move(candidates), e.get(), out);
      }
      return true;
    }
  }
  return false;
}

// ConcreteEval with variable nodes pinned by the current combo: a node bound
// in `pinned` evaluates to its assigned value regardless of kind.
bool ConcreteEvalVars(const Expr* e, const std::map<const Expr*, int32_t>& pinned, int32_t* out) {
  auto it = pinned.find(e);
  if (it != pinned.end()) {
    *out = it->second;
    return true;
  }
  switch (e->kind) {
    case Expr::Kind::kConst:
      *out = e->cval;
      return true;
    case Expr::Kind::kLeaf:
      // Every leaf reachable without crossing a pinned node is itself
      // pinned; anything else is a collection bug, not a verdict.
      return false;
    case Expr::Kind::kUn: {
      int32_t a = 0;
      if (!ConcreteEvalVars(e->a.get(), pinned, &a)) {
        return false;
      }
      *out = ir::EvalUnOp(e->un, a);
      return true;
    }
    case Expr::Kind::kBin: {
      int32_t a = 0;
      int32_t b = 0;
      if (!ConcreteEvalVars(e->a.get(), pinned, &a) ||
          !ConcreteEvalVars(e->b.get(), pinned, &b)) {
        return false;
      }
      return ir::EvalBinOp(e->bin, a, b, out);
    }
    case Expr::Kind::kTrunc: {
      int32_t a = 0;
      if (!ConcreteEvalVars(e->a.get(), pinned, &a)) {
        return false;
      }
      *out = e->trunc_type.Truncate(a);
      return true;
    }
  }
  return false;
}

}  // namespace

SymVal Solver::Eval(const ExprPtr& e) {
  if (e == nullptr) {
    return SymVal::Top();
  }
  switch (e->kind) {
    case Expr::Kind::kConst:
      return SymVal::Exact(e->cval);
    case Expr::Kind::kLeaf:
      return e->leaf_val;
    case Expr::Kind::kUn:
      return EvalUnOp(e->un, Eval(e->a));
    case Expr::Kind::kBin:
      return EvalBinOp(e->bin, Eval(e->a), Eval(e->b));
    case Expr::Kind::kTrunc:
      return Truncate(Eval(e->a), e->trunc_type);
  }
  return SymVal::Top();
}

SolveResult Solver::Solve(const ExprPtr& e) {
  ++queries_;
  SolveResult result;
  if (e == nullptr) {
    return result;
  }
  Enumeration enumeration;
  if (PrepareEnumeration(e, kMaxCombos, &enumeration)) {
    ++enumerations_;
    result.enumerated = true;
    size_t n = enumeration.leaves.size();
    for (const Expr* leaf : enumeration.leaves) {
      result.assumed = result.assumed || leaf->leaf_val.assumed;
    }
    std::vector<std::set<int32_t>> true_vals(n);
    std::vector<std::set<int32_t>> false_vals(n);
    int64_t true_combos = 0;
    int64_t false_combos = 0;
    std::vector<size_t> odo(n, 0);
    std::map<LeafKey, int32_t> assignment;
    for (int64_t combo = 0; combo < enumeration.combos; ++combo) {
      for (size_t i = 0; i < n; ++i) {
        const Expr* leaf = enumeration.leaves[i];
        assignment[LeafKey{leaf->record, leaf->gen}] = enumeration.candidates[i][odo[i]];
      }
      ++combos_evaluated_;
      int32_t value = 0;
      if (!ConcreteEval(e.get(), assignment, &value)) {
        result.may_fail = true;
      } else {
        bool truth = value != 0;
        (truth ? true_combos : false_combos)++;
        for (size_t i = 0; i < n; ++i) {
          (truth ? true_vals : false_vals)[i].insert(enumeration.candidates[i][odo[i]]);
        }
      }
      for (size_t i = 0; i < n; ++i) {
        if (++odo[i] < enumeration.candidates[i].size()) {
          break;
        }
        odo[i] = 0;
      }
    }
    if (true_combos > 0 && false_combos == 0) {
      result.outcome = Outcome::kAlwaysTrue;
    } else if (false_combos > 0 && true_combos == 0) {
      result.outcome = Outcome::kAlwaysFalse;
    }
    auto emit_refinements = [&](const std::vector<std::set<int32_t>>& vals,
                                std::vector<LeafRefinement>* out) {
      for (size_t i = 0; i < n; ++i) {
        const Expr* leaf = enumeration.leaves[i];
        if (!leaf->refinable || vals[i].empty() ||
            vals[i].size() == enumeration.candidates[i].size()) {
          continue;
        }
        LeafRefinement r;
        r.record = leaf->record;
        r.gen = leaf->gen;
        r.refined = SymVal::FromSet(std::vector<int32_t>(vals[i].begin(), vals[i].end()));
        r.refined.assumed = leaf->leaf_val.assumed;
        out->push_back(std::move(r));
      }
    };
    emit_refinements(true_vals, &result.when_true);
    emit_refinements(false_vals, &result.when_false);
    return result;
  }
  // Abstract fallback.
  bool may_fail = false;
  SymVal v = Eval(e);
  // Re-walk for failure potential: any division whose divisor admits zero.
  std::vector<const Expr*> stack = {e.get()};
  while (!stack.empty()) {
    const Expr* node = stack.back();
    stack.pop_back();
    if (node->kind == Expr::Kind::kBin &&
        (node->bin == esm::BinaryOp::kDiv || node->bin == esm::BinaryOp::kMod) &&
        Eval(node->b).Contains(0)) {
      may_fail = true;
    }
    if (node->a != nullptr) {
      stack.push_back(node->a.get());
    }
    if (node->b != nullptr) {
      stack.push_back(node->b.get());
    }
  }
  result.may_fail = may_fail;
  result.assumed = v.assumed;
  if (v.DefinitelyNonZero()) {
    result.outcome = Outcome::kAlwaysTrue;
  } else if (v.DefinitelyZero()) {
    result.outcome = Outcome::kAlwaysFalse;
  }
  // Interval-level refinement for the common `leaf cmp const` shape, which
  // enumeration misses when the leaf tracks only an interval (loop indices).
  // Bool truncations preserve truthiness (nonzero -> 1), so unwrap them.
  const Expr* cond = e.get();
  while (cond->kind == Expr::Kind::kTrunc && cond->trunc_type.IsBoolish() &&
         cond->a != nullptr) {
    cond = cond->a.get();
  }
  if (cond->kind == Expr::Kind::kBin && cond->a != nullptr && cond->b != nullptr) {
    // See through truncations that cannot change the leaf's tracked values
    // (an in-range u8 loop index copied through its own type): the trunc is
    // the identity there, so refining the underlying leaf stays sound.
    auto strip = [](const Expr* x) -> const Expr* {
      while (x->kind == Expr::Kind::kTrunc && x->a != nullptr &&
             x->a->kind == Expr::Kind::kLeaf &&
             Truncate(x->a->leaf_val, x->trunc_type) == x->a->leaf_val) {
        x = x->a.get();
      }
      return x;
    };
    const Expr* lhs = strip(cond->a.get());
    const Expr* rhs = strip(cond->b.get());
    const SymVal va = Eval(cond->a);
    const SymVal vb = Eval(cond->b);
    auto hull = [](const SymVal& v) {
      return v.HasSet() ? Interval::Of(v.values.front(), v.values.back()) : v.interval;
    };
    const Interval ia = hull(va);
    const Interval ib = hull(vb);
    const Interval full = Interval::Full();
    // Narrows `leaf` to `iv` (or to the other side's full abstract value for
    // equalities). A refinement derived from a tainted opposite side is
    // itself an assumption.
    auto add = [&](const Expr* leaf, bool other_assumed, std::vector<LeafRefinement>* out,
                   const Interval& iv, const SymVal* by_value) {
      if (leaf->kind != Expr::Kind::kLeaf || !leaf->refinable ||
          (by_value == nullptr && iv.lo > iv.hi)) {
        return;
      }
      SymVal by = by_value != nullptr ? *by_value : SymVal::FromInterval(iv);
      by.assumed = other_assumed;
      LeafRefinement r;
      r.record = leaf->record;
      r.gen = leaf->gen;
      r.refined = Refine(leaf->leaf_val, by);
      out->push_back(std::move(r));
    };
    switch (cond->bin) {
      case esm::BinaryOp::kEq:
        add(lhs, vb.assumed, &result.when_true, full, &vb);
        add(rhs, va.assumed, &result.when_true, full, &va);
        break;
      case esm::BinaryOp::kNe:
        add(lhs, vb.assumed, &result.when_false, full, &vb);
        add(rhs, va.assumed, &result.when_false, full, &va);
        break;
      case esm::BinaryOp::kLt:
        add(lhs, vb.assumed, &result.when_true, Interval::Of(full.lo, ib.hi - 1), nullptr);
        add(rhs, va.assumed, &result.when_true, Interval::Of(ia.lo + 1, full.hi), nullptr);
        add(lhs, vb.assumed, &result.when_false, Interval::Of(ib.lo, full.hi), nullptr);
        add(rhs, va.assumed, &result.when_false, Interval::Of(full.lo, ia.hi), nullptr);
        break;
      case esm::BinaryOp::kLe:
        add(lhs, vb.assumed, &result.when_true, Interval::Of(full.lo, ib.hi), nullptr);
        add(rhs, va.assumed, &result.when_true, Interval::Of(ia.lo, full.hi), nullptr);
        add(lhs, vb.assumed, &result.when_false, Interval::Of(ib.lo + 1, full.hi), nullptr);
        add(rhs, va.assumed, &result.when_false, Interval::Of(full.lo, ia.hi - 1), nullptr);
        break;
      case esm::BinaryOp::kGt:
        add(lhs, vb.assumed, &result.when_true, Interval::Of(ib.lo + 1, full.hi), nullptr);
        add(rhs, va.assumed, &result.when_true, Interval::Of(full.lo, ia.hi - 1), nullptr);
        add(lhs, vb.assumed, &result.when_false, Interval::Of(full.lo, ib.hi), nullptr);
        add(rhs, va.assumed, &result.when_false, Interval::Of(ia.lo, full.hi), nullptr);
        break;
      case esm::BinaryOp::kGe:
        add(lhs, vb.assumed, &result.when_true, Interval::Of(ib.lo, full.hi), nullptr);
        add(rhs, va.assumed, &result.when_true, Interval::Of(full.lo, ia.hi), nullptr);
        add(lhs, vb.assumed, &result.when_false, Interval::Of(full.lo, ib.hi - 1), nullptr);
        add(rhs, va.assumed, &result.when_false, Interval::Of(ia.lo + 1, full.hi), nullptr);
        break;
      default:
        break;
    }
  }
  return result;
}

bool Solver::IsTypeTautology(const ExprPtr& e) {
  return StorageOutcome(e) == Outcome::kAlwaysTrue;
}

Outcome Solver::StorageOutcome(const ExprPtr& e) {
  if (e == nullptr) {
    return Outcome::kUnknown;
  }
  StorageVars vars;
  if (!CollectStorageVars(e, &vars)) {
    return Outcome::kUnknown;
  }
  // A condition with no program leaves is a constant; type-level verdicts
  // are reserved for conditions over actual program values (constant asserts
  // and `while (1)` headers are their own idioms, not type facts).
  if (!vars.has_program_leaf || vars.candidates.empty()) {
    return Outcome::kUnknown;
  }
  size_t n = vars.candidates.size();
  if (static_cast<int>(n) > kMaxExprLeaves) {
    return Outcome::kUnknown;
  }
  int64_t combos = 1;
  for (const std::vector<int32_t>& candidates : vars.candidates) {
    combos *= static_cast<int64_t>(candidates.size());
    if (combos > kMaxTautologyCombos) {
      return Outcome::kUnknown;
    }
  }
  std::vector<size_t> odo(n, 0);
  std::map<const Expr*, int32_t> pinned;
  bool seen_true = false;
  bool seen_false = false;
  for (int64_t combo = 0; combo < combos; ++combo) {
    for (size_t i = 0; i < n; ++i) {
      for (const Expr* node : vars.nodes[i]) {
        pinned[node] = vars.candidates[i][odo[i]];
      }
    }
    ++combos_evaluated_;
    int32_t value = 0;
    if (!ConcreteEvalVars(e.get(), pinned, &value)) {
      return Outcome::kUnknown;
    }
    (value != 0 ? seen_true : seen_false) = true;
    if (seen_true && seen_false) {
      return Outcome::kUnknown;
    }
    for (size_t i = 0; i < n; ++i) {
      if (++odo[i] < vars.candidates[i].size()) {
        break;
      }
      odo[i] = 0;
    }
  }
  return seen_true ? Outcome::kAlwaysTrue : Outcome::kAlwaysFalse;
}

}  // namespace efeu::analysis::sym
