#include "src/analysis/dataflow.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <limits>

#include "src/analysis/cfg.h"
#include "src/ir/opcode_info.h"

namespace efeu::analysis {

namespace {

constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();

// Joins into a block entry this many times before widening kicks in.
constexpr int kWidenAfter = 8;

// The executor evaluates in int64 and casts the result back to int32; once a
// bound leaves the int32 range the cast can wrap anywhere, so the sound
// abstraction is the full range.
Interval ClampWrap(int64_t lo, int64_t hi) {
  if (lo < kI32Min || hi > kI32Max) {
    return Interval::Full();
  }
  return Interval{lo, hi};
}

int64_t Mod(int64_t v, int64_t m) { return ((v % m) + m) % m; }

// Smallest power of two strictly greater than `v` (v >= 0, v <= INT32_MAX).
int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p <= v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

Interval Interval::Full() { return Interval{kI32Min, kI32Max}; }

Interval Interval::Storage(const Type& type) {
  switch (type.kind) {
    case ScalarKind::kBit:
    case ScalarKind::kBool:
      return Interval{0, 1};
    case ScalarKind::kU8:
    case ScalarKind::kEnum:
      return Interval{0, 255};
    case ScalarKind::kI16:
      return Interval{-32768, 32767};
    case ScalarKind::kI32:
      return Full();
  }
  return Full();
}

Interval Join(const Interval& a, const Interval& b) {
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval TruncateInterval(const Interval& v, const Type& type) {
  switch (type.kind) {
    case ScalarKind::kBit:
    case ScalarKind::kBool:
      if (v.DefinitelyZero()) {
        return Interval{0, 0};
      }
      if (v.DefinitelyNonZero()) {
        return Interval{1, 1};
      }
      return Interval{0, 1};
    case ScalarKind::kU8:
    case ScalarKind::kEnum: {
      if (v.hi - v.lo + 1 >= 256) {
        return Interval{0, 255};
      }
      int64_t lo = Mod(v.lo, 256);
      int64_t hi = Mod(v.hi, 256);
      return lo <= hi ? Interval{lo, hi} : Interval{0, 255};
    }
    case ScalarKind::kI16: {
      if (v.hi - v.lo + 1 >= 65536) {
        return Interval{-32768, 32767};
      }
      int64_t lo = static_cast<int16_t>(static_cast<uint16_t>(Mod(v.lo, 65536)));
      int64_t hi = static_cast<int16_t>(static_cast<uint16_t>(Mod(v.hi, 65536)));
      return lo <= hi ? Interval{lo, hi} : Interval{-32768, 32767};
    }
    case ScalarKind::kI32:
      return v;
  }
  return v;
}

Interval EvalUnOpInterval(esm::UnaryOp op, const Interval& a) {
  // Exact operands fold through the shared scalar evaluator
  // (src/ir/opcode_info.h), so singleton results agree bit-for-bit with every
  // executor instead of re-deriving each operator's arithmetic here.
  if (a.IsExact()) {
    return Interval::Exact(ir::EvalUnOp(op, static_cast<int32_t>(a.lo)));
  }
  switch (op) {
    case esm::UnaryOp::kPlus:
      return a;
    case esm::UnaryOp::kNegate:
      return ClampWrap(-a.hi, -a.lo);
    case esm::UnaryOp::kBitNot:
      return Interval{-a.hi - 1, -a.lo - 1};
    case esm::UnaryOp::kLogicalNot:
      if (a.DefinitelyZero()) {
        return Interval{1, 1};
      }
      if (a.DefinitelyNonZero()) {
        return Interval{0, 0};
      }
      return Interval{0, 1};
  }
  return Interval::Full();
}

namespace {

Interval FromCandidates(int64_t c0, int64_t c1, int64_t c2, int64_t c3) {
  return ClampWrap(std::min({c0, c1, c2, c3}), std::max({c0, c1, c2, c3}));
}

Interval Bool01(bool definitely_true, bool definitely_false) {
  if (definitely_true) {
    return Interval{1, 1};
  }
  if (definitely_false) {
    return Interval{0, 0};
  }
  return Interval{0, 1};
}

}  // namespace

Interval EvalBinOpInterval(esm::BinaryOp op, const Interval& a, const Interval& b) {
  // Exact operands: fold via the shared scalar evaluator. Division/modulo by
  // an exact zero stays partial (a checker-visible runtime error, not a
  // value) and falls through to the conservative per-operator handling.
  if (a.IsExact() && b.IsExact()) {
    int32_t folded = 0;
    if (ir::EvalBinOp(op, static_cast<int32_t>(a.lo), static_cast<int32_t>(b.lo), &folded)) {
      return Interval::Exact(folded);
    }
  }
  switch (op) {
    case esm::BinaryOp::kAdd:
      return ClampWrap(a.lo + b.lo, a.hi + b.hi);
    case esm::BinaryOp::kSub:
      return ClampWrap(a.lo - b.hi, a.hi - b.lo);
    case esm::BinaryOp::kMul:
      return FromCandidates(a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi);
    case esm::BinaryOp::kDiv: {
      if (b.Contains(0)) {
        // Division by zero is a checker-visible runtime error, not a value;
        // bound the surviving executions by |a / b| <= |a| for |b| >= 1.
        int64_t m = std::max(std::abs(a.lo), std::abs(a.hi));
        return ClampWrap(-m, m);
      }
      return FromCandidates(a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi);
    }
    case esm::BinaryOp::kMod: {
      int64_t m = std::max(std::abs(b.lo), std::abs(b.hi));
      if (m == 0) {
        return Interval::Full();  // Always a runtime error.
      }
      // C truncation: the result's sign follows the dividend.
      int64_t lo = a.lo >= 0 ? 0 : -(m - 1);
      int64_t hi = a.hi <= 0 ? 0 : m - 1;
      // |a % b| <= |a|.
      int64_t abs_a = std::max(std::abs(a.lo), std::abs(a.hi));
      return Interval{std::max(lo, -abs_a), std::min(hi, abs_a)};
    }
    case esm::BinaryOp::kShl:
    case esm::BinaryOp::kShr: {
      // The executor yields 0 for shift amounts outside [0, 31].
      int64_t s_lo = std::max<int64_t>(b.lo, 0);
      int64_t s_hi = std::min<int64_t>(b.hi, 31);
      Interval result{0, 0};
      bool have = false;
      if (b.lo < 0 || b.hi > 31) {
        have = true;  // Zero is a possible outcome.
      }
      if (s_lo <= s_hi) {
        Interval shifted;
        if (op == esm::BinaryOp::kShl) {
          shifted = FromCandidates(a.lo * (int64_t{1} << s_lo), a.lo * (int64_t{1} << s_hi),
                                   a.hi * (int64_t{1} << s_lo), a.hi * (int64_t{1} << s_hi));
        } else {
          shifted = FromCandidates(a.lo >> s_lo, a.lo >> s_hi, a.hi >> s_lo, a.hi >> s_hi);
        }
        result = have ? Join(result, shifted) : shifted;
        have = true;
      }
      return have ? result : Interval{0, 0};
    }
    case esm::BinaryOp::kLt:
      return Bool01(a.hi < b.lo, a.lo >= b.hi);
    case esm::BinaryOp::kGt:
      return Bool01(a.lo > b.hi, a.hi <= b.lo);
    case esm::BinaryOp::kLe:
      return Bool01(a.hi <= b.lo, a.lo > b.hi);
    case esm::BinaryOp::kGe:
      return Bool01(a.lo >= b.hi, a.hi < b.lo);
    case esm::BinaryOp::kEq:
      return Bool01(a.IsExact() && b.IsExact() && a.lo == b.lo, !a.Intersects(b));
    case esm::BinaryOp::kNe:
      return Bool01(!a.Intersects(b), a.IsExact() && b.IsExact() && a.lo == b.lo);
    case esm::BinaryOp::kBitAnd:
      if (a.IsExact() && b.IsExact()) {
        return Interval::Exact(static_cast<int32_t>(a.lo & b.lo));
      }
      if (a.lo >= 0 && b.lo >= 0) {
        return Interval{0, std::min(a.hi, b.hi)};
      }
      return Interval::Full();
    case esm::BinaryOp::kBitOr:
      if (a.IsExact() && b.IsExact()) {
        return Interval::Exact(static_cast<int32_t>(a.lo | b.lo));
      }
      if (a.lo >= 0 && b.lo >= 0) {
        // a|b never clears bits of either operand and never sets a bit above
        // both operands' leading bits.
        return Interval{std::max(a.lo, b.lo), NextPow2(std::max(a.hi, b.hi)) - 1};
      }
      return Interval::Full();
    case esm::BinaryOp::kBitXor:
      if (a.IsExact() && b.IsExact()) {
        return Interval::Exact(static_cast<int32_t>(a.lo ^ b.lo));
      }
      if (a.lo >= 0 && b.lo >= 0) {
        return Interval{0, NextPow2(std::max(a.hi, b.hi)) - 1};
      }
      return Interval::Full();
    case esm::BinaryOp::kLogicalAnd:
      return Bool01(a.DefinitelyNonZero() && b.DefinitelyNonZero(),
                    a.DefinitelyZero() || b.DefinitelyZero());
    case esm::BinaryOp::kLogicalOr:
      return Bool01(a.DefinitelyNonZero() || b.DefinitelyNonZero(),
                    a.DefinitelyZero() && b.DefinitelyZero());
  }
  return Interval::Full();
}

namespace {

std::vector<int> BuildRecordOf(const ir::Module& module) {
  std::vector<int> record_of(module.frame_size, -1);
  for (size_t r = 0; r < module.slots.size(); ++r) {
    const ir::SlotInfo& slot = module.slots[r];
    for (int i = 0; i < slot.size; ++i) {
      if (slot.offset + i >= 0 && slot.offset + i < module.frame_size) {
        record_of[slot.offset + i] = static_cast<int>(r);
      }
    }
  }
  return record_of;
}

class Transfer {
 public:
  Transfer(const ir::Module& module, const std::vector<int>& record_of)
      : module_(module), record_of_(record_of) {}

  // Applies the whole block to `state` in place; appends the feasible
  // successor block ids to `succs` (empty for kHalt). Observer may be null.
  void ApplyBlock(int block, BlockState& state, DataflowObserver* obs,
                  std::vector<int>* succs) {
    for (const ir::Inst& inst : module_.blocks[block].insts) {
      switch (inst.op) {
        case ir::Opcode::kConst:
          Write(state, inst.dst, TruncateInterval(Interval::Exact(inst.imm), inst.type));
          break;
        case ir::Opcode::kCopy: {
          Interval v = Read(state, block, inst, inst.a, obs);
          CheckTruncation(state, block, inst, inst.dst, v, obs);
          Write(state, inst.dst, TruncateInterval(v, inst.type));
          break;
        }
        case ir::Opcode::kUnOp:
          Write(state, inst.dst, EvalUnOpInterval(inst.unop, Read(state, block, inst, inst.a, obs)));
          break;
        case ir::Opcode::kBinOp: {
          Interval a = Read(state, block, inst, inst.a, obs);
          Interval b = Read(state, block, inst, inst.b, obs);
          Write(state, inst.dst, EvalBinOpInterval(inst.binop, a, b));
          break;
        }
        case ir::Opcode::kLoadIdx: {
          Interval index = Read(state, block, inst, inst.b, obs);
          CheckBounds(state, block, inst, inst.a, index, obs);
          Interval v = Read(state, block, inst, inst.a, obs);
          Write(state, inst.dst, TruncateInterval(v, inst.type));
          break;
        }
        case ir::Opcode::kStoreIdx: {
          Interval v = Read(state, block, inst, inst.a, obs);
          Interval index = Read(state, block, inst, inst.b, obs);
          CheckBounds(state, block, inst, inst.dst, index, obs);
          CheckTruncation(state, block, inst, inst.dst, v, obs);
          Write(state, inst.dst, TruncateInterval(v, inst.type));
          break;
        }
        case ir::Opcode::kSend:
          ReadRange(state, block, inst, inst.a, inst.count, obs);
          break;
        case ir::Opcode::kRecv:
          ApplyRecv(state, inst);
          break;
        case ir::Opcode::kNondet:
          Write(state, inst.dst, Interval::Of(0, std::max<int64_t>(inst.imm - 1, 0)));
          break;
        case ir::Opcode::kAssert:
          Read(state, block, inst, inst.a, obs);
          break;
        case ir::Opcode::kJump:
          if (succs != nullptr) {
            succs->push_back(inst.target);
          }
          return;
        case ir::Opcode::kBranch: {
          Interval cond = Read(state, block, inst, inst.a, obs);
          if (succs != nullptr) {
            if (cond.DefinitelyNonZero()) {
              succs->push_back(inst.target);
            } else if (cond.DefinitelyZero()) {
              succs->push_back(inst.target2);
            } else {
              succs->push_back(inst.target);
              if (inst.target2 != inst.target) {
                succs->push_back(inst.target2);
              }
            }
          }
          return;
        }
        case ir::Opcode::kHalt:
          return;
      }
    }
  }

 private:
  int RecordOf(int offset) const {
    return offset >= 0 && offset < static_cast<int>(record_of_.size()) ? record_of_[offset] : -1;
  }

  Interval Read(BlockState& state, int block, const ir::Inst& inst, int offset,
                DataflowObserver* obs) {
    int r = RecordOf(offset);
    if (r < 0) {
      return Interval::Full();
    }
    SlotState& slot = state.records[r];
    if (obs != nullptr && slot.maybe_uninit &&
        module_.slots[r].slot_class == ir::SlotClass::kVar) {
      obs->OnUninitRead(block, inst, r);
    }
    return slot.interval;
  }

  void ReadRange(BlockState& state, int block, const ir::Inst& inst, int base, int count,
                 DataflowObserver* obs) {
    int prev = -1;
    for (int i = 0; i < count; ++i) {
      int r = RecordOf(base + i);
      if (r >= 0 && r != prev) {
        Read(state, block, inst, base + i, obs);
        prev = r;
      }
    }
  }

  void Write(BlockState& state, int offset, Interval v) {
    int r = RecordOf(offset);
    if (r < 0) {
      return;
    }
    SlotState& slot = state.records[r];
    // Per-base handling: multi-element records take the join (we do not track
    // which element was written) and any element write initializes the base.
    slot.interval = module_.slots[r].size == 1 ? v : Join(slot.interval, v);
    slot.maybe_uninit = false;
  }

  void ApplyRecv(BlockState& state, const ir::Inst& inst) {
    const esi::ChannelInfo* channel =
        inst.port >= 0 && inst.port < static_cast<int>(module_.ports.size())
            ? module_.ports[inst.port].channel
            : nullptr;
    int prev = -1;
    for (int i = 0; i < inst.count; ++i) {
      int r = RecordOf(inst.dst + i);
      if (r < 0 || r == prev) {
        continue;
      }
      prev = r;
      const ir::SlotInfo& slot = module_.slots[r];
      // Senders stage every field through a truncating copy, so each word of
      // the message is within its field type's storage range.
      Interval v{0, 0};
      bool have = false;
      if (channel != nullptr) {
        for (const esi::FieldInfo& field : channel->fields) {
          int field_begin = inst.dst + field.flat_offset;
          int field_end = field_begin + field.type.FlatSize();
          if (field_begin < slot.offset + slot.size && slot.offset < field_end) {
            Interval fs = Interval::Storage(field.type.Element());
            v = have ? Join(v, fs) : fs;
            have = true;
          }
        }
      }
      state.records[r].interval = have ? v : Interval::Full();
      state.records[r].maybe_uninit = false;
    }
  }

  void CheckTruncation(BlockState& state, int block, const ir::Inst& inst, int dst_offset,
                       const Interval& v, DataflowObserver* obs) {
    if (obs == nullptr) {
      return;
    }
    // bit/bool conversion is value-preserving in the boolean sense; i32 never
    // truncates.
    if (inst.type.IsBoolish() || inst.type.kind == ScalarKind::kI32) {
      return;
    }
    if (!v.Intersects(Interval::Storage(inst.type))) {
      obs->OnTruncationLoss(block, inst, RecordOf(dst_offset), v, inst.type);
    }
  }

  void CheckBounds(BlockState& state, int block, const ir::Inst& inst, int base_offset,
                   const Interval& index, DataflowObserver* obs) {
    if (obs == nullptr || inst.imm <= 0) {
      return;
    }
    if (!index.Intersects(Interval::Of(0, inst.imm - 1))) {
      obs->OnDefiniteOutOfBounds(block, inst, RecordOf(base_offset), index, inst.imm);
    }
  }

  const ir::Module& module_;
  const std::vector<int>& record_of_;
};

// Static successor block ids (both branch targets, no pruning).
std::vector<int> StaticSuccs(const ir::Module& module, int block) {
  std::vector<int> out;
  for (const ir::Inst& inst : module.blocks[block].insts) {
    if (inst.op == ir::Opcode::kJump) {
      out.push_back(inst.target);
      return out;
    }
    if (inst.op == ir::Opcode::kBranch) {
      out.push_back(inst.target);
      if (inst.target2 != inst.target) {
        out.push_back(inst.target2);
      }
      return out;
    }
    if (inst.op == ir::Opcode::kHalt) {
      return out;
    }
  }
  return out;
}

// Reverse-postorder index of every block statically reachable from block 0
// (unreached blocks keep an index past the end; the fixpoint never visits
// them). An edge u->v with rpo[v] <= rpo[u] is a retreating edge — for the
// reducible CFGs lowering produces, exactly the loop back edges.
std::vector<int> RpoIndex(const ir::Module& module) {
  size_t n = module.blocks.size();
  std::vector<int> index(n, static_cast<int>(n));
  std::vector<char> visited(n, 0);
  std::vector<std::pair<int, size_t>> stack;  // (block, next child index)
  std::vector<int> postorder;
  stack.emplace_back(0, 0);
  visited[0] = 1;
  while (!stack.empty()) {
    auto& [b, child] = stack.back();
    std::vector<int> succs = StaticSuccs(module, b);
    if (child < succs.size()) {
      int s = succs[child++];
      if (!visited[s]) {
        visited[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      postorder.push_back(b);
      stack.pop_back();
    }
  }
  for (size_t i = 0; i < postorder.size(); ++i) {
    index[postorder[i]] = static_cast<int>(postorder.size() - 1 - i);
  }
  return index;
}

// Joins `from` into `target`; returns whether the target state changed. With
// `widen`, any bound that grew jumps straight to the int32 extreme so loops
// terminate quickly.
bool JoinInto(BlockState& target, const BlockState& from, bool widen) {
  if (!target.feasible) {
    target = from;
    target.feasible = true;
    return true;
  }
  bool changed = false;
  for (size_t r = 0; r < target.records.size(); ++r) {
    SlotState& t = target.records[r];
    const SlotState& f = from.records[r];
    if (f.maybe_uninit && !t.maybe_uninit) {
      t.maybe_uninit = true;
      changed = true;
    }
    Interval joined = Join(t.interval, f.interval);
    if (!(joined == t.interval)) {
      if (widen) {
        if (joined.lo < t.interval.lo) {
          joined.lo = std::numeric_limits<int32_t>::min();
        }
        if (joined.hi > t.interval.hi) {
          joined.hi = std::numeric_limits<int32_t>::max();
        }
      }
      t.interval = joined;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

DataflowFacts RunDataflow(const ir::Module& module, DataflowObserver* observer) {
  return RunDataflow(module, observer, DataflowOptions{});
}

DataflowFacts RunDataflow(const ir::Module& module, DataflowObserver* observer,
                          const DataflowOptions& options) {
  DataflowFacts facts;
  facts.record_of = BuildRecordOf(module);
  size_t n = module.blocks.size();
  facts.block_entry.resize(n);
  for (BlockState& state : facts.block_entry) {
    state.records.resize(module.slots.size());
  }
  if (n == 0) {
    return facts;
  }
  Transfer transfer(module, facts.record_of);

  // First-iteration peeling: every block is analyzed in two contexts — 0 for
  // paths that have not taken a retreating (loop back) edge since last
  // leaving a loop, 1 for the rest. Forward edges inside a loop stay in the
  // sender's context, retreating edges always land in context 1, and edges
  // leaving a cyclic component reset to context 0 so every loop gets its own
  // peeled first iteration. This keeps the pre-loop state out of the
  // loop-exit join, so the init-loop idiom (i = 0; while (i < N) arr[i] = 0;)
  // proves the array initialized after the loop — even when another loop ran
  // earlier: in context 0 the exit edge is pruned (i is exactly 0), and
  // context 1 only ever sees post-body states.
  std::vector<int> rpo = RpoIndex(module);
  CfgFacts cfg = BuildCfgFacts(module);
  auto node = [](int block, int ctx) { return block * 2 + ctx; };
  std::vector<BlockState> entry(2 * n);
  for (BlockState& state : entry) {
    state.records.resize(module.slots.size());
  }
  entry[node(0, 0)].feasible = true;
  if (options.stale_entry) {
    // Reset entry path: persistent variables carry whatever the aborted run
    // left in them, bounded only by their storage range.
    BlockState& initial = entry[node(0, 0)];
    for (size_t r = 0; r < module.slots.size(); ++r) {
      if (module.slots[r].slot_class == ir::SlotClass::kVar) {
        initial.records[r].interval = Interval::Storage(module.slots[r].type);
      }
    }
  }
  std::vector<int> join_count(2 * n, 0);
  std::vector<char> queued(2 * n, 0);
  std::deque<int> worklist;
  worklist.push_back(node(0, 0));
  queued[node(0, 0)] = 1;
  while (!worklist.empty()) {
    int current = worklist.front();
    worklist.pop_front();
    queued[current] = 0;
    int b = current / 2;
    int ctx = current % 2;
    BlockState state = entry[current];
    std::vector<int> succs;
    transfer.ApplyBlock(b, state, nullptr, &succs);
    for (int s : succs) {
      int next_ctx;
      if (rpo[s] <= rpo[b]) {
        next_ctx = 1;
      } else if (cfg.scc_id[s] != cfg.scc_id[b] && cfg.sccs[cfg.scc_id[b]].has_cycle) {
        next_ctx = 0;
      } else {
        next_ctx = ctx;
      }
      int target = node(s, next_ctx);
      bool widen = ++join_count[target] > kWidenAfter;
      if (JoinInto(entry[target], state, widen) && !queued[target]) {
        worklist.push_back(target);
        queued[target] = 1;
      }
    }
  }

  // Exported per-block facts are the join over both contexts.
  for (size_t b = 0; b < n; ++b) {
    for (int ctx = 0; ctx < 2; ++ctx) {
      const BlockState& state = entry[node(static_cast<int>(b), ctx)];
      if (state.feasible) {
        JoinInto(facts.block_entry[b], state, /*widen=*/false);
      }
    }
  }

  if (observer != nullptr) {
    // Replay per context, not with the joined state: the joined state can
    // contain infeasible combinations the per-context analysis ruled out.
    // The observers deduplicate by source location, so a block replayed in
    // both contexts reports each finding once.
    for (size_t b = 0; b < n; ++b) {
      for (int ctx = 0; ctx < 2; ++ctx) {
        const BlockState& e = entry[node(static_cast<int>(b), ctx)];
        if (!e.feasible) {
          continue;
        }
        BlockState state = e;
        transfer.ApplyBlock(static_cast<int>(b), state, observer, nullptr);
      }
    }
  }
  return facts;
}

}  // namespace efeu::analysis
