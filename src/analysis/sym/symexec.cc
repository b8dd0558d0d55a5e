#include "src/analysis/sym/symexec.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>

#include "src/analysis/sym/solver.h"

namespace efeu::analysis::sym {

namespace {

// Cap on the node count of a tracked expression; bigger values fall back to
// a leaf over the computed abstract value.
constexpr int kMaxExprSize = 48;

// Joins at one block before the interval part widens to the storage hull.
constexpr int kWidenAfter = 12;

// Assume-guarantee rounds over a compilation's modules.
constexpr int kMaxRounds = 3;

struct Cell {
  SymVal val;
  uint64_t gen = 0;
  ExprPtr expr;
};

struct State {
  std::vector<Cell> cells;
};

bool InRange(const SymVal& v, int64_t lo, int64_t hi) {
  if (v.HasSet()) {
    return v.values.front() >= lo && v.values.back() <= hi;
  }
  return v.interval.lo >= lo && v.interval.hi <= hi;
}

bool DefinitelyOutOfRange(const SymVal& v, int64_t lo, int64_t hi) {
  if (v.HasSet()) {
    for (int32_t x : v.values) {
      if (x >= lo && x <= hi) {
        return false;
      }
    }
    return true;
  }
  return v.interval.hi < lo || v.interval.lo > hi;
}

class SymExecutor {
 public:
  SymExecutor(const ir::Module& module, const ChannelFacts& facts, const SymOptions& options)
      : module_(module), facts_(facts), options_(options) {
    elem_type_.resize(module.frame_size, Type::I32());
    for (const ir::SlotInfo& slot : module.slots) {
      Type elem = slot.type.IsArray() ? slot.type.Element() : slot.type;
      for (int i = 0; i < slot.size && slot.offset + i < module.frame_size; ++i) {
        elem_type_[slot.offset + i] = elem;
      }
    }
  }

  ModuleSummary Run() {
    auto start = std::chrono::steady_clock::now();
    summary_.layer = module_.layer_name;
    int num_blocks = static_cast<int>(module_.blocks.size());
    entry_.resize(num_blocks);
    has_state_.assign(num_blocks, 0);
    joins_.assign(num_blocks, 0);
    in_worklist_.assign(num_blocks, 0);
    MarkLoopHeads();

    State initial;
    initial.cells.resize(module_.frame_size);
    for (int i = 0; i < module_.frame_size; ++i) {
      initial.cells[i].val = SymVal::Exact(0);  // Frames start zeroed.
      initial.cells[i].gen = NextGen();
    }
    entry_[0] = std::move(initial);
    has_state_[0] = 1;
    Enqueue(0);

    while (!worklist_.empty()) {
      if (++summary_.blocks_visited > options_.max_block_visits) {
        summary_.complete = false;
        break;
      }
      int block = worklist_.front();
      worklist_.pop_front();
      in_worklist_[block] = 0;
      work_ = entry_[block];  // Transfer mutates; the assignment reuses work_'s cells.
      TransferBlock(block, /*replay=*/false);
    }

    if (summary_.complete) {
      // One replay per reached block from its converged entry state records
      // the per-site verdicts, infeasible arms, and send summaries.
      replay_ = true;
      for (int block = 0; block < num_blocks; ++block) {
        if (has_state_[block]) {
          work_ = entry_[block];
          TransferBlock(block, /*replay=*/true);
        }
      }
    }

    summary_.solver_queries = solver_.queries();
    summary_.solver_enumerations = solver_.enumerations();
    summary_.solver_combos = solver_.combos_evaluated();
    summary_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return std::move(summary_);
  }

 private:
  uint64_t NextGen() { return ++gen_counter_; }

  // Widening is confined to loop heads (targets of DFS retreating edges):
  // every cycle passes through one, which bounds the climb, while join-only
  // blocks — a loop body after a refining branch, say — keep the narrowed
  // entry states that make the body's bounds checks provable.
  void MarkLoopHeads() {
    int num_blocks = static_cast<int>(module_.blocks.size());
    loop_head_.assign(num_blocks, 0);
    std::vector<char> color(num_blocks, 0);  // 0 white, 1 on stack, 2 done
    std::vector<std::pair<int, int>> stack;  // (block, next successor index)
    stack.emplace_back(0, 0);
    color[0] = 1;
    while (!stack.empty()) {
      auto& [block, next] = stack.back();
      std::vector<int> succs;
      for (const ir::Inst& inst : module_.blocks[block].insts) {
        if (inst.op == ir::Opcode::kJump) {
          succs.push_back(inst.target);
        } else if (inst.op == ir::Opcode::kBranch) {
          succs.push_back(inst.target);
          succs.push_back(inst.target2);
        }
      }
      if (next >= static_cast<int>(succs.size())) {
        color[block] = 2;
        stack.pop_back();
        continue;
      }
      int succ = succs[next++];
      if (succ < 0 || succ >= num_blocks) {
        continue;
      }
      if (color[succ] == 1) {
        loop_head_[succ] = 1;
      } else if (color[succ] == 0) {
        color[succ] = 1;
        stack.emplace_back(succ, 0);
      }
    }
  }

  void Enqueue(int block) {
    if (!in_worklist_[block]) {
      in_worklist_[block] = 1;
      worklist_.push_back(block);
    }
  }

  ExprPtr ExprOf(const State& state, int offset) {
    const Cell& cell = state.cells[offset];
    if (cell.expr != nullptr && cell.expr->size <= kMaxExprSize) {
      return Refresh(state, cell.expr);
    }
    return Expr::Leaf(offset, cell.gen, cell.val, elem_type_[offset], /*refinable=*/true);
  }

  // Substitutes current (possibly branch-refined) cell values into leaves
  // whose generation still matches, so refinements learned on one branch
  // reach conditions computed before the branch.
  ExprPtr Refresh(const State& state, const ExprPtr& e) {
    if (e == nullptr) {
      return e;
    }
    switch (e->kind) {
      case Expr::Kind::kConst:
        return e;
      case Expr::Kind::kLeaf: {
        if (e->record < 0 || e->record >= static_cast<int>(state.cells.size())) {
          return e;
        }
        const Cell& cell = state.cells[e->record];
        if (cell.gen == e->gen && !(cell.val == e->leaf_val)) {
          return Expr::Leaf(e->record, e->gen, cell.val, e->leaf_type, e->refinable);
        }
        return e;
      }
      case Expr::Kind::kUn: {
        ExprPtr a = Refresh(state, e->a);
        return a == e->a ? e : Expr::Un(e->un, std::move(a));
      }
      case Expr::Kind::kBin: {
        ExprPtr a = Refresh(state, e->a);
        ExprPtr b = Refresh(state, e->b);
        return (a == e->a && b == e->b) ? e : Expr::Bin(e->bin, std::move(a), std::move(b));
      }
      case Expr::Kind::kTrunc: {
        ExprPtr a = Refresh(state, e->a);
        return a == e->a ? e : Expr::Trunc(e->trunc_type, std::move(a));
      }
    }
    return e;
  }

  void WriteCell(State& state, int offset, SymVal val, ExprPtr expr) {
    Cell& cell = state.cells[offset];
    cell.val = std::move(val);
    cell.gen = NextGen();
    cell.expr = (expr != nullptr && expr->size <= kMaxExprSize) ? std::move(expr) : nullptr;
  }

  void ApplyRefinements(State& state, const std::vector<LeafRefinement>& refinements) {
    refined_.clear();
    for (const LeafRefinement& r : refinements) {
      if (r.record < 0 || r.record >= static_cast<int>(state.cells.size())) {
        continue;
      }
      Cell& cell = state.cells[r.record];
      if (cell.gen != r.gen) {
        continue;  // The cell was overwritten; the leaf is stale.
      }
      // Refinement narrows the value without being a write: the generation
      // is kept so downstream expressions still refresh against this cell.
      cell.val = Refine(cell.val, r.refined);
      refined_.push_back(r.record);
    }
    if (refined_.empty()) {
      return;
    }
    // Alias propagation: a cell computed FROM a refined leaf (`d = r.r;
    // if (d > 0) ... 12 / d`) holds a copy the leaf refinement alone never
    // narrows. Each cell's expression is its defining function of the leaves
    // as of its last write, so re-evaluating it under the refined (refreshed)
    // leaf values over-approximates the cell on this arm; intersecting keeps
    // the tighter of the two.
    for (Cell& cell : state.cells) {
      if (cell.expr == nullptr || cell.expr->kind == Expr::Kind::kLeaf ||
          !MentionsRefinedLeaf(state, cell.expr, refined_)) {
        continue;
      }
      cell.val = Refine(cell.val, solver_.Eval(Refresh(state, cell.expr)));
    }
  }

  // True when `e` has a leaf of a just-refined record whose generation still
  // matches that cell (i.e. Refresh would substitute the narrowed value).
  bool MentionsRefinedLeaf(const State& state, const ExprPtr& e, const std::vector<int>& records) {
    if (e == nullptr) {
      return false;
    }
    if (e->kind == Expr::Kind::kLeaf) {
      if (e->record < 0 || e->record >= static_cast<int>(state.cells.size())) {
        return false;
      }
      return state.cells[e->record].gen == e->gen &&
             std::find(records.begin(), records.end(), e->record) != records.end();
    }
    return MentionsRefinedLeaf(state, e->a, records) || MentionsRefinedLeaf(state, e->b, records);
  }

  // Most cells of an arriving frame equal the entry's; SubsumedBy is
  // reflexive, so those skip the full check.
  bool Subsumed(const State& a, const State& b) {
    for (size_t i = 0; i < a.cells.size(); ++i) {
      const SymVal& v = a.cells[i].val;
      if (v == b.cells[i].val) {
        assert(v.SubsumedBy(b.cells[i].val));
        continue;
      }
      if (!v.SubsumedBy(b.cells[i].val)) {
        return false;
      }
    }
    return true;
  }

  SymVal JoinValue(const SymVal& into, const SymVal& from, size_t cell, bool widen) const {
    return widen ? Widen(into, from, Interval::Storage(elem_type_[cell])) : Join(into, from);
  }

  void JoinInto(State& into, const State& from, bool widen) {
    for (size_t i = 0; i < into.cells.size(); ++i) {
      Cell& dst = into.cells[i];
      const Cell& src = from.cells[i];
      if (JoinKeeps(dst.val, src.val)) {
        assert(JoinValue(dst.val, src.val, i, widen) == dst.val);
      } else {
        dst.val = JoinValue(dst.val, src.val, i, widen);
      }
      // Different defining writes reach this point, whether or not the value
      // changed: the merged cell is a fresh join value (a new generation, so
      // no leaf snapshot of either write refreshes against it) with no
      // single defining expression.
      if (src.gen != dst.gen) {
        dst.gen = NextGen();
      }
      if (src.expr != dst.expr) {
        dst.expr = nullptr;
      }
    }
  }

  // `state` is the executor's work or branch-arm buffer; the first arrival
  // at a block copies it, later ones merge it in.
  void Propagate(int to, const State& state) {
    if (!has_state_[to]) {
      entry_[to] = state;
      has_state_[to] = 1;
      Enqueue(to);
      return;
    }
    if (Subsumed(state, entry_[to])) {
      ++summary_.paths;  // This path segment merges into explored territory.
      return;
    }
    ++summary_.merges;
    bool widen = ++joins_[to] > kWidenAfter && loop_head_[to] != 0;
    if (widen) {
      ++summary_.widenings;
    }
    JoinInto(entry_[to], state, widen);
    Enqueue(to);
  }

  void RecordSite(SiteVerdict::Kind kind, int block, int inst_index, const ir::Inst& inst,
                  bool proved, bool assumed, bool always_fails, std::string value) {
    SiteVerdict site;
    site.kind = kind;
    site.block = block;
    site.inst_index = inst_index;
    site.loc = inst.loc;
    site.proved = proved;
    site.assumed = assumed;
    site.always_fails = always_fails;
    site.value = std::move(value);
    summary_.sites.push_back(std::move(site));
  }

  const std::vector<SymVal>* FactsFor(int port) const {
    if (port < 0 || port >= static_cast<int>(module_.ports.size())) {
      return nullptr;
    }
    auto it = facts_.find(module_.ports[port].channel);
    return it == facts_.end() ? nullptr : &it->second;
  }

  // Runs `block` on work_, which holds its entry state.
  void TransferBlock(int block, bool replay) {
    State& state = work_;
    const ir::Block& blk = module_.blocks[block];
    for (int i = 0; i < static_cast<int>(blk.insts.size()); ++i) {
      const ir::Inst& inst = blk.insts[i];
      switch (inst.op) {
        case ir::Opcode::kConst: {
          int32_t v = inst.type.Truncate(inst.imm);
          WriteCell(state, inst.dst, SymVal::Exact(v), Expr::Const(v));
          break;
        }
        case ir::Opcode::kCopy: {
          SymVal v = Truncate(state.cells[inst.a].val, inst.type);
          WriteCell(state, inst.dst, std::move(v), Expr::Trunc(inst.type, ExprOf(state, inst.a)));
          break;
        }
        case ir::Opcode::kUnOp: {
          SymVal v = EvalUnOp(inst.unop, state.cells[inst.a].val);
          WriteCell(state, inst.dst, std::move(v), Expr::Un(inst.unop, ExprOf(state, inst.a)));
          break;
        }
        case ir::Opcode::kBinOp: {
          bool divides =
              inst.binop == esm::BinaryOp::kDiv || inst.binop == esm::BinaryOp::kMod;
          const SymVal& bv = state.cells[inst.b].val;
          if (divides && replay) {
            RecordSite(SiteVerdict::Kind::kDivisor, block, i, inst,
                       /*proved=*/!bv.Contains(0), bv.assumed, bv.DefinitelyZero(),
                       bv.ToString());
          }
          if (divides && bv.DefinitelyZero()) {
            ++summary_.paths;  // Execution always fails here; path ends.
            return;
          }
          bool may_fail = false;
          SymVal v = EvalBinOp(inst.binop, state.cells[inst.a].val, bv, &may_fail);
          WriteCell(state, inst.dst, std::move(v),
                    Expr::Bin(inst.binop, ExprOf(state, inst.a), ExprOf(state, inst.b)));
          break;
        }
        case ir::Opcode::kLoadIdx: {
          const SymVal& idx = state.cells[inst.b].val;
          if (replay) {
            RecordSite(SiteVerdict::Kind::kIndex, block, i, inst,
                       /*proved=*/InRange(idx, 0, inst.imm - 1), idx.assumed,
                       DefinitelyOutOfRange(idx, 0, inst.imm - 1), idx.ToString());
          }
          if (DefinitelyOutOfRange(idx, 0, inst.imm - 1)) {
            ++summary_.paths;
            return;
          }
          if (idx.IsExact() && idx.interval.lo >= 0 && idx.interval.lo < inst.imm) {
            int src = inst.a + static_cast<int>(idx.interval.lo);
            SymVal v = Truncate(state.cells[src].val, inst.type);
            WriteCell(state, inst.dst, std::move(v),
                      Expr::Trunc(inst.type, ExprOf(state, src)));
          } else {
            int64_t lo = std::max<int64_t>(0, idx.interval.lo);
            int64_t hi = std::min<int64_t>(inst.imm - 1, idx.interval.hi);
            SymVal joined;
            bool first = true;
            for (int64_t w = lo; w <= hi; ++w) {
              const SymVal& e = state.cells[inst.a + w].val;
              joined = first ? e : Join(joined, e);
              first = false;
            }
            if (first) {
              joined = SymVal::Top();
            }
            WriteCell(state, inst.dst, Truncate(joined, inst.type), nullptr);
          }
          break;
        }
        case ir::Opcode::kStoreIdx: {
          const SymVal& idx = state.cells[inst.b].val;
          if (replay) {
            RecordSite(SiteVerdict::Kind::kIndex, block, i, inst,
                       /*proved=*/InRange(idx, 0, inst.imm - 1), idx.assumed,
                       DefinitelyOutOfRange(idx, 0, inst.imm - 1), idx.ToString());
          }
          if (DefinitelyOutOfRange(idx, 0, inst.imm - 1)) {
            ++summary_.paths;
            return;
          }
          SymVal src = Truncate(state.cells[inst.a].val, inst.type);
          if (idx.IsExact() && idx.interval.lo >= 0 && idx.interval.lo < inst.imm) {
            int dst = inst.dst + static_cast<int>(idx.interval.lo);
            WriteCell(state, dst, std::move(src), Expr::Trunc(inst.type, ExprOf(state, inst.a)));
          } else {
            int64_t lo = std::max<int64_t>(0, idx.interval.lo);
            int64_t hi = std::min<int64_t>(inst.imm - 1, idx.interval.hi);
            for (int64_t w = lo; w <= hi; ++w) {
              Cell& cell = state.cells[inst.dst + w];
              SymVal joined = Join(cell.val, src);
              WriteCell(state, inst.dst + static_cast<int>(w), std::move(joined), nullptr);
            }
          }
          break;
        }
        case ir::Opcode::kSend: {
          if (replay) {
            PortFacts* pf = nullptr;
            for (PortFacts& existing : summary_.send_facts) {
              if (existing.port == inst.port) {
                pf = &existing;
              }
            }
            if (pf == nullptr) {
              summary_.send_facts.push_back(PortFacts{inst.port, {}});
              pf = &summary_.send_facts.back();
            }
            if (static_cast<int>(pf->words.size()) < inst.count) {
              pf->words.resize(inst.count, SymVal::Exact(0));
            }
            for (int w = 0; w < inst.count; ++w) {
              const SymVal& v = state.cells[inst.a + w].val;
              pf->words[w] = pf->words[w].IsExact() && pf->words[w].interval.lo == 0 &&
                                     !seen_send_[inst.port]
                                 ? v
                                 : Join(pf->words[w], v);
            }
            seen_send_[inst.port] = true;
          }
          break;
        }
        case ir::Opcode::kRecv: {
          const std::vector<SymVal>* facts = FactsFor(inst.port);
          for (int w = 0; w < inst.count; ++w) {
            SymVal v = (facts != nullptr && w < static_cast<int>(facts->size()))
                           ? (*facts)[w]
                           : SymVal::Top();
            WriteCell(state, inst.dst + w, std::move(v), nullptr);
          }
          break;
        }
        case ir::Opcode::kNondet: {
          // The choices 0..imm-1; small arities canonicalize to exact sets.
          WriteCell(state, inst.dst,
                    SymVal::FromInterval(Interval::Of(0, std::max<int64_t>(0, inst.imm - 1))),
                    nullptr);
          break;
        }
        case ir::Opcode::kAssert: {
          SolveResult r = solver_.Solve(ExprOf(state, inst.a));
          if (replay) {
            bool proved = r.outcome == Outcome::kAlwaysTrue && !r.may_fail;
            SiteVerdict site;
            site.kind = SiteVerdict::Kind::kAssert;
            site.block = block;
            site.inst_index = i;
            site.loc = inst.loc;
            site.proved = proved;
            site.assumed = r.assumed;
            site.always_fails = r.outcome == Outcome::kAlwaysFalse;
            site.value = state.cells[inst.a].val.ToString();
            if (proved) {
              site.tautology = solver_.IsTypeTautology(ExprOf(state, inst.a));
            }
            summary_.sites.push_back(std::move(site));
          }
          if (r.outcome == Outcome::kAlwaysFalse) {
            ++summary_.paths;  // The executor always fails here.
            return;
          }
          // Surviving the assert is itself a refinement — both for the leaves
          // of the condition expression and for the condition cell itself,
          // which need not be a leaf of its own defining expression (the
          // short-circuit `||` lowering joins condition cells directly).
          ApplyRefinements(state, r.when_true);
          Cell& cond = state.cells[inst.a];
          cond.val = ExcludeValue(cond.val, 0);
          break;
        }
        case ir::Opcode::kJump: {
          if (!replay) {
            Propagate(inst.target, state);
          }
          return;
        }
        case ir::Opcode::kBranch: {
          SolveResult r = solver_.Solve(ExprOf(state, inst.a));
          bool true_feasible = r.outcome != Outcome::kAlwaysFalse;
          bool false_feasible = r.outcome != Outcome::kAlwaysTrue;
          if (replay && (!true_feasible || !false_feasible)) {
            BranchInfo info;
            info.block = block;
            info.inst_index = i;
            info.loc = inst.loc;
            info.true_infeasible = !true_feasible;
            info.false_infeasible = !false_feasible;
            info.assumed = r.assumed;
            Outcome types = solver_.StorageOutcome(ExprOf(state, inst.a));
            info.from_types = (info.true_infeasible && types == Outcome::kAlwaysFalse) ||
                              (info.false_infeasible && types == Outcome::kAlwaysTrue);
            summary_.infeasible_branches.push_back(info);
          }
          if (replay) {
            return;
          }
          // Each arm additionally strengthens the condition cell itself
          // (nonzero on the taken-true arm, exactly zero on the false arm);
          // the cell is not always a leaf of its own defining expression, so
          // ApplyRefinements alone would leave it untouched.
          if (true_feasible && false_feasible) {
            State& other = arm_;
            other = state;  // Before the true arm's refinements narrow `state`.
            ApplyRefinements(state, r.when_true);
            state.cells[inst.a].val = ExcludeValue(state.cells[inst.a].val, 0);
            ApplyRefinements(other, r.when_false);
            other.cells[inst.a].val = Refine(other.cells[inst.a].val, SymVal::Exact(0));
            Propagate(inst.target, state);
            Propagate(inst.target2, other);
          } else if (true_feasible) {
            ApplyRefinements(state, r.when_true);
            state.cells[inst.a].val = ExcludeValue(state.cells[inst.a].val, 0);
            Propagate(inst.target, state);
          } else if (false_feasible) {
            ApplyRefinements(state, r.when_false);
            state.cells[inst.a].val = Refine(state.cells[inst.a].val, SymVal::Exact(0));
            Propagate(inst.target2, state);
          } else {
            ++summary_.paths;  // Both arms infeasible: nothing survives.
          }
          return;
        }
        case ir::Opcode::kHalt: {
          if (!replay) {
            ++summary_.paths;
          }
          return;
        }
      }
    }
  }

  const ir::Module& module_;
  const ChannelFacts& facts_;
  SymOptions options_;
  Solver solver_;
  std::vector<Type> elem_type_;
  std::vector<State> entry_;
  // The frame a block transfer runs on, and the false arm of a two-armed
  // branch; copy-assigned in place, so a visit allocates no frame.
  State work_;
  State arm_;
  std::vector<int> refined_;  // ApplyRefinements' scratch list of records.
  std::vector<char> has_state_;
  std::vector<int> joins_;
  std::vector<char> in_worklist_;
  std::vector<char> loop_head_;
  std::deque<int> worklist_;
  std::map<int, bool> seen_send_;
  uint64_t gen_counter_ = 0;
  bool replay_ = false;
  ModuleSummary summary_;
};

}  // namespace

bool ModuleSummary::AllProved(bool* any_assumed) const {
  bool assumed = false;
  bool all = complete;
  for (const SiteVerdict& site : sites) {
    if (!site.proved) {
      all = false;
    }
    assumed = assumed || (site.proved && site.assumed);
  }
  if (any_assumed != nullptr) {
    *any_assumed = assumed;
  }
  return all;
}

namespace {

// Contract-derived per-word facts for one channel (see ExternalFacts).
std::vector<SymVal> ContractWordFacts(const esi::SystemInfo& info, const esi::ChannelInfo& channel,
                                      ExternalFacts mode) {
  std::vector<SymVal> words(channel.flat_size, SymVal::Top());
  if (mode == ExternalFacts::kTop) {
    return words;
  }
  for (const esi::FieldInfo& field : channel.fields) {
    Type elem = field.type.IsArray() ? field.type.Element() : field.type;
    SymVal fact;
    if (elem.IsEnum()) {
      const esi::EnumInfo* e = info.FindEnum(elem.enum_name);
      int members = e != nullptr ? static_cast<int>(e->members.size()) : 256;
      // The ordinals; small enums canonicalize to exact sets.
      fact = SymVal::FromInterval(Interval::Of(0, members - 1));
    } else if (elem.BitWidth() >= 32) {
      continue;  // Unconstrained; Top already, and soundly so.
    } else {
      fact = SymVal::Storage(elem);
    }
    // Nothing compiled here enforces what the external sender puts on the
    // wire; even the storage-width ranges are contract assumptions.
    fact.assumed = true;
    for (int i = 0; i < field.type.FlatSize(); ++i) {
      int w = field.flat_offset + i;
      if (w >= 0 && w < channel.flat_size) {
        words[w] = fact;
      }
    }
  }
  return words;
}

}  // namespace

ModuleSummary AnalyzeModuleSym(const ir::Module& module, const ChannelFacts& facts,
                               const SymOptions& options) {
  SymExecutor exec(module, facts, options);
  return exec.Run();
}

bool CompilationSummary::AllProved(bool* any_assumed) const {
  bool assumed = false;
  bool all = true;
  for (const ModuleSummary& m : modules) {
    bool a = false;
    if (!m.AllProved(&a)) {
      all = false;
    }
    assumed = assumed || a;
  }
  if (any_assumed != nullptr) {
    *any_assumed = assumed;
  }
  return all;
}

uint64_t CompilationSummary::TotalPaths() const {
  uint64_t n = 0;
  for (const ModuleSummary& m : modules) {
    n += m.paths;
  }
  return n;
}

uint64_t CompilationSummary::TotalSolverQueries() const {
  uint64_t n = 0;
  for (const ModuleSummary& m : modules) {
    n += m.solver_queries;
  }
  return n;
}

CompilationSummary AnalyzeCompilationSym(const ir::Compilation& comp, const SymOptions& options) {
  auto start = std::chrono::steady_clock::now();
  CompilationSummary out;
  const std::vector<ir::Module>& modules = comp.modules();

  // Which channels have an in-compilation sender?
  std::map<const esi::ChannelInfo*, bool> internal;
  for (const ir::Module& m : modules) {
    for (const ir::Port& p : m.ports) {
      if (p.is_send) {
        internal[p.channel] = true;
      }
    }
  }

  // Seed: internal channels start from the per-field storage envelope
  // (sound: every staged word is truncated to its field type before the
  // send); external channels get contract or top facts per the options.
  ChannelFacts facts;
  for (const ir::Module& m : modules) {
    for (const ir::Port& p : m.ports) {
      if (facts.count(p.channel) != 0) {
        continue;
      }
      if (internal.count(p.channel) != 0) {
        std::vector<SymVal> words;
        words.reserve(p.channel->flat_size);
        for (const esi::FieldInfo& field : p.channel->fields) {
          Type elem = field.type.IsArray() ? field.type.Element() : field.type;
          for (int i = 0; i < field.type.FlatSize(); ++i) {
            words.push_back(SymVal::Storage(elem));
          }
        }
        words.resize(p.channel->flat_size, SymVal::Top());
        facts[p.channel] = std::move(words);
      } else {
        facts[p.channel] = ContractWordFacts(comp.system(), *p.channel, options.external_facts);
      }
    }
  }

  // Each module's last summary and the receive-port facts it ran under. The
  // executor consults its facts only at kRecv, which lowering emits only on
  // receive ports, so when those facts are unchanged a new run would
  // reproduce the summary exactly; the summary is reused instead. The facts
  // of the channels a module sends on change from round to round but never
  // reach that module's own run.
  struct LastRun {
    std::vector<std::vector<SymVal>> recv_facts;
    ModuleSummary summary;
  };
  std::vector<LastRun> last(modules.size());

  for (int round = 0; round < kMaxRounds; ++round) {
    out.rounds = round + 1;
    ChannelFacts next = facts;
    for (size_t i = 0; i < modules.size(); ++i) {
      const ir::Module& m = modules[i];
      LastRun& run = last[i];
      std::vector<std::vector<SymVal>> recv_facts;
      for (const ir::Port& p : m.ports) {
        if (!p.is_send) {
          recv_facts.push_back(facts.at(p.channel));
        }
      }
      if (round == 0 || recv_facts != run.recv_facts) {
        run.summary = AnalyzeModuleSym(m, facts, options);
        run.recv_facts = std::move(recv_facts);
        ++out.module_runs;
      }
      for (const PortFacts& pf : run.summary.send_facts) {
        const esi::ChannelInfo* ch = m.ports[pf.port].channel;
        std::vector<SymVal> words = pf.words;
        words.resize(ch->flat_size, SymVal::Exact(0));
        next[ch] = std::move(words);
      }
    }
    if (next == facts) {
      break;
    }
    facts = std::move(next);
  }
  for (LastRun& run : last) {
    out.modules.push_back(std::move(run.summary));
  }

  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

std::string RenderSymSummary(const ir::Compilation& comp, const CompilationSummary& summary) {
  std::string out;
  for (const ModuleSummary& m : summary.modules) {
    out += "module " + m.layer + (m.complete ? "" : " (incomplete)") + "\n";
    const ir::Module* module = comp.FindModule(m.layer);
    for (const SiteVerdict& site : m.sites) {
      const char* kind = site.kind == SiteVerdict::Kind::kAssert
                             ? "assert"
                             : site.kind == SiteVerdict::Kind::kDivisor ? "divisor" : "index";
      out += "  " + std::string(kind) + " b" + std::to_string(site.block) + "." +
             std::to_string(site.inst_index) + " " +
             (site.always_fails ? "FAILS" : site.proved ? "proved" : "unknown");
      if (site.proved && site.assumed) {
        out += " (assumed)";
      }
      if (site.tautology) {
        out += " (tautology)";
      }
      out += " value=" + site.value + "\n";
    }
    for (const BranchInfo& b : m.infeasible_branches) {
      out += "  branch b" + std::to_string(b.block) + "." + std::to_string(b.inst_index) +
             (b.true_infeasible ? " true-arm-infeasible" : "") +
             (b.false_infeasible ? " false-arm-infeasible" : "") +
             (b.assumed ? " (assumed)" : "") + "\n";
    }
    for (const PortFacts& pf : m.send_facts) {
      const esi::ChannelInfo* ch =
          module != nullptr && pf.port < static_cast<int>(module->ports.size())
              ? module->ports[pf.port].channel
              : nullptr;
      out += "  send " + (ch != nullptr ? ch->MessageStructName() : "port" + std::to_string(pf.port)) +
             ":";
      for (size_t w = 0; w < pf.words.size(); ++w) {
        const esi::FieldInfo* field = nullptr;
        if (ch != nullptr) {
          for (const esi::FieldInfo& f : ch->fields) {
            if (static_cast<int>(w) >= f.flat_offset &&
                static_cast<int>(w) < f.flat_offset + f.type.FlatSize()) {
              field = &f;
            }
          }
        }
        out += " ";
        if (field != nullptr && static_cast<int>(w) == field->flat_offset) {
          out += field->name + "=";
        }
        out += pf.words[w].ToString();
      }
      out += "\n";
    }
    out += "  paths=" + std::to_string(m.paths) + " merges=" + std::to_string(m.merges) +
           " widenings=" + std::to_string(m.widenings) +
           " solver-queries=" + std::to_string(m.solver_queries) +
           " enumerations=" + std::to_string(m.solver_enumerations) + "\n";
  }
  return out;
}

}  // namespace efeu::analysis::sym
