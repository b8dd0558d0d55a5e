// Forward dataflow over a lowered ir::Module: a per-slot-record interval
// domain plus a may-uninitialized bit, with branch-pruned block feasibility.
// The lint rules consume it through DataflowObserver callbacks; every
// interval-based rule fires only on *definite* violations (the proven range
// lies entirely outside the legal one), so over-approximation can only cause
// false negatives, never false positives.

#ifndef SRC_ANALYSIS_DATAFLOW_H_
#define SRC_ANALYSIS_DATAFLOW_H_

#include <cstdint>
#include <vector>

#include "src/ir/ir.h"

namespace efeu::analysis {

// A non-empty range of int32 values, tracked in int64 so transfer functions
// can detect wraparound (the executor computes in int64 and casts back).
struct Interval {
  int64_t lo = 0;
  int64_t hi = 0;

  // Inline: every SymVal construction starts from Exact(0).
  static Interval Exact(int64_t v) { return Interval{v, v}; }
  static Interval Of(int64_t lo, int64_t hi) { return Interval{lo, hi}; }
  // The whole int32 range.
  static Interval Full();
  // The values representable by `type`'s storage (after truncation):
  // bit/bool [0,1], u8/enum [0,255], i16 [-32768,32767], i32 full.
  static Interval Storage(const Type& type);

  bool IsExact() const { return lo == hi; }
  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  bool Intersects(const Interval& other) const { return lo <= other.hi && other.lo <= hi; }
  bool DefinitelyZero() const { return lo == 0 && hi == 0; }
  bool DefinitelyNonZero() const { return lo > 0 || hi < 0; }

  bool operator==(const Interval& other) const { return lo == other.lo && hi == other.hi; }
};

Interval Join(const Interval& a, const Interval& b);
// The result range of truncating every value in `v` to `type` (mirrors
// Type::Truncate, including u8/i16 wraparound).
Interval TruncateInterval(const Interval& v, const Type& type);
Interval EvalUnOpInterval(esm::UnaryOp op, const Interval& a);
Interval EvalBinOpInterval(esm::BinaryOp op, const Interval& a, const Interval& b);

// Abstract value of one slot *record* (one ir::SlotInfo entry). Arrays are
// handled per-base: all elements share one record, writes to any element
// initialize it and join into its interval.
struct SlotState {
  Interval interval = Interval::Exact(0);  // Frames start zeroed.
  // No write (or message arrival) has definitely happened yet. The zero the
  // executor supplies is still a *value*, so this is a lint fact, not an
  // undefined-behaviour fact.
  bool maybe_uninit = true;

  bool operator==(const SlotState& other) const {
    return interval == other.interval && maybe_uninit == other.maybe_uninit;
  }
};

struct BlockState {
  std::vector<SlotState> records;  // One per module.slots entry.
  // False until some feasible path reaches the block. Branches whose
  // condition interval is definite propagate to only one successor, so this
  // is strictly stronger than graph reachability.
  bool feasible = false;
};

// Rule hooks invoked during the post-fixpoint replay of every feasible block.
// `record` indexes module.slots.
class DataflowObserver {
 public:
  virtual ~DataflowObserver() = default;
  // A kVar record is read while its maybe_uninit bit is still set.
  virtual void OnUninitRead(int block, const ir::Inst& inst, int record) {}
  // A truncating write whose source interval has no overlap with the
  // destination type's storage range (every value changes).
  virtual void OnTruncationLoss(int block, const ir::Inst& inst, int record,
                                const Interval& src, const Type& type) {}
  // A kLoadIdx/kStoreIdx whose index interval lies entirely outside
  // [0, bound) — the executor would always fail here.
  virtual void OnDefiniteOutOfBounds(int block, const ir::Inst& inst, int base_record,
                                     const Interval& index, int bound) {}
};

struct DataflowFacts {
  // Converged state at each block's entry. blocks with feasible == false were
  // never reached on any feasible path.
  std::vector<BlockState> block_entry;
  // Index of the slot record covering each frame offset, or -1.
  std::vector<int> record_of;
};

struct DataflowOptions {
  // Model the reset entry path instead of cold boot: kVar records enter the
  // process with their full storage range (the stale values a soft reset can
  // leave behind — the Verilog watchdog reset returns every FSM to its
  // initial state but does not scrub persistent storage) rather than the
  // zeroed frame. Reads that are initialization-dominated only under the
  // frames-start-zeroed assumption surface as uninit reads in this mode; the
  // reset-safety rule reports the delta against a normal run.
  bool stale_entry = false;
};

// Runs the forward fixpoint (with widening on loops), then replays every
// feasible block once against `observer` (may be null) using the converged
// entry states.
DataflowFacts RunDataflow(const ir::Module& module, DataflowObserver* observer);
DataflowFacts RunDataflow(const ir::Module& module, DataflowObserver* observer,
                          const DataflowOptions& options);

}  // namespace efeu::analysis

#endif  // SRC_ANALYSIS_DATAFLOW_H_
