// COLLAPSE-style compressed state storage (cf. SPIN's -DCOLLAPSE) plus the
// incremental snapshot codec built on top of it.
//
// CollapseTable interns each process's snapshot in a per-process component
// table; a global state is then one int32 component id per process, cutting
// visited-set bytes/state by roughly the process count (the distinct
// component count per process is far smaller than the distinct global state
// count — that product structure is exactly why the full state space
// explodes). Interning is content-addressed: identical snapshots always get
// identical ids, so compressed keys compare like the full vectors.
//
// Each process's index is a flat FingerprintIndex of {fingerprint, id} slots
// (src/support/state_table.h) over a chunked payload arena, so interning is
// one probe plus a word compare, ids stay dense (0, 1, 2, ... per process),
// and growth never copies a stored payload.
//
// StateCodec is the search's view: it tracks which component id each live
// process currently corresponds to, so a DFS step only re-snapshots the one
// or two processes a transition moved (Apply + Closure can only wake the
// transition's participants) and a restore only rewrites the processes whose
// component differs from the target key. It also keeps the live full state
// vector (every process's snapshot, in process-id order) in one buffer: an
// encode snapshots a process into its slice, a restore expands the component
// into it. That buffer is what the forced-run sampling rule hashes
// (FullStateHash). In full mode (no table) it degrades to whole-vector
// snapshot/restore straight into the key, which then is the full state
// vector — the `collapse = false` ablation baseline.

#ifndef SRC_CHECK_STATE_CODEC_H_
#define SRC_CHECK_STATE_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/check/checker.h"
#include "src/support/hash.h"
#include "src/support/state_table.h"

namespace efeu::check {

class CollapseTable {
 public:
  // `sizes[p]` = snapshot word count of process p (fixed per process).
  explicit CollapseTable(std::vector<int> sizes);

  // Interns `snapshot` for process `process`, returning its component id.
  // Identical snapshots always get the same id.
  int32_t Intern(int process, std::span<const int32_t> snapshot);

  // Copies the snapshot behind a component id into `out` (sizes[process]
  // words).
  void Expand(int process, int32_t id, std::span<int32_t> out) const;

  // Total component payload bytes across all per-process tables — the
  // memory the compressed keys lean on, reported next to the visited-set
  // payload in CheckResult.
  uint64_t payload_bytes() const { return payload_bytes_; }
  uint64_t components() const;

 private:
  static constexpr int kChunkShift = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  struct PerProcess {
    int size = 0;
    // fingerprint -> component id.
    FingerprintIndex index;
    // Component id's payload at (id % kChunkSize) * size in
    // chunks[id / kChunkSize]; each chunk is reserved once, so appends never
    // move a stored payload.
    std::vector<std::vector<int32_t>> chunks;
    int32_t count = 0;
  };

  static const int32_t* Slot(const PerProcess& pp, int32_t id) {
    return pp.chunks[static_cast<size_t>(id) >> kChunkShift].data() +
           (static_cast<size_t>(id) & (kChunkSize - 1)) * static_cast<size_t>(pp.size);
  }

  std::vector<PerProcess> per_process_;
  uint64_t payload_bytes_ = 0;
};

// Encodes the live CheckedSystem state to/from the visited-set key.
//
// Usage per DFS step:
//   codec.Restore(parent_key);    // delta-restores the live system
//   codec.NoteStep(t);            // marks t's participants dirty
//   system.Apply(t); system.Closure(...);
//   codec.EncodeStep(&child_key); // re-interns only the dirty processes
// Paths that bail between NoteStep and EncodeStep (violating closures, depth
// probes) just leave the participants dirty; the next Restore rewrites them.
class StateCodec {
 public:
  // `table` == nullptr selects full (uncompressed) mode.
  StateCodec(CheckedSystem& system, CollapseTable* table);

  // Re-encodes every process of the live system into *key.
  void EncodeFull(std::vector<int32_t>* key);
  // Marks the processes `t` is about to move as dirty.
  void NoteStep(const CheckedSystem::Transition& t);
  // Re-encodes the dirty processes from the live system, then writes the
  // complete key into *key (a reused caller scratch buffer).
  void EncodeStep(std::vector<int32_t>* key);
  // Restores the live system to `key`.
  void Restore(const std::vector<int32_t>& key);

  // HashWords of the live full state vector (every process's snapshot in
  // process-id order) as of the last encode, given `key_hash` = HashWords of
  // the key that encode wrote. In full mode the key is that vector, so this
  // is `key_hash`; under COLLAPSE it hashes the codec's buffer, resuming the
  // chain at the first process whose slice changed since the last call. The
  // forced-run sampling rule (kPorChainSampleMask) decides on this value, so
  // collapse on and off store the same run states.
  uint64_t FullStateHash(uint64_t key_hash);

 private:
  static constexpr int32_t kDirty = -1;

  void EncodeProcess(int process);
  void SliceChanged(size_t process) { changed_from_ = std::min(changed_from_, process); }
  std::span<int32_t> Slice(size_t process) {
    return std::span<int32_t>(full_).subspan(static_cast<size_t>(offsets_[process]),
                                             static_cast<size_t>(sizes_[process]));
  }

  CheckedSystem& system_;
  CollapseTable* table_;
  std::vector<int> sizes_;
  std::vector<int> offsets_;  // Each process's offset in the full state vector.
  int key_size_ = 0;
  // Collapse mode: the component id each live process currently holds, or
  // kDirty when the live process has moved past its last encoding.
  std::vector<int32_t> current_;
  // Collapse mode: the live full state vector. Process p's slice holds the
  // payload of component current_[p] whenever that is not kDirty.
  std::vector<int32_t> full_;
  // Collapse mode: FullStateHash's resumable chain. A two-word lane straddles
  // two slices where an offset is odd, so process p's chain boundary is its
  // offset rounded down to even, lane_begin_[p]; lane_begin_[process count]
  // is the end of the last whole lane. chain_[p] is HashWords's running state
  // after the lanes before lane_begin_[p], valid for p <= changed_from_, the
  // first process whose slice changed since the last FullStateHash.
  std::vector<size_t> lane_begin_;
  std::vector<uint64_t> chain_;
  size_t changed_from_ = 0;
};

}  // namespace efeu::check

#endif  // SRC_CHECK_STATE_CODEC_H_
