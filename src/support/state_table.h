// Visited-state table for the model checker, keyed by the 64-bit state
// fingerprint. Two storage modes:
//
//  - full (default): the complete state vector is stored and compared, so
//    membership is exact;
//  - fingerprint-only ("hash compaction", cf. SPIN's -DHC): only the 8-byte
//    fingerprint is stored. Two distinct states colliding on the fingerprint
//    are treated as one, so an unexplored state can be silently pruned — a
//    false-negative probability of roughly stored_states^2 / 2^65 in
//    exchange for a fixed 8 bytes per state.
//
// Storage is SPIN's flat layout: a FingerprintIndex (an open-addressing
// array of {fingerprint, entry} slots) over an append-only arena of key
// words. The key width is fixed per table — the first claim sets it (under
// COLLAPSE one component id per process, otherwise the full snapshot) — so
// entry e's words sit at a computed place in the arena. The arena grows in
// chunks of kChunkEntries keys, so an append never copies the keys already
// stored (full snapshots can run to hundreds of words).
//
// Each state vector is hashed exactly once: callers that already computed
// HashWords (the checker DFS needs it anyway) pass it to the *Hashed entry
// points, which use it for slot placement. Exact mode compares key words
// whenever fingerprints match, so a colliding pair of distinct states still
// occupies two entries and membership stays exact.
//
// With track_progress the table additionally remembers the minimum progress
// credit each state was reached with, and Claim re-admits a state reached
// with a strictly lower credit — the re-entry rule the checker's
// non-progress-cycle search needs to catch cycles entered through cross
// edges (see checker.cc).
//
// Single-threaded: every search owns its tables.

#ifndef SRC_SUPPORT_STATE_TABLE_H_
#define SRC_SUPPORT_STATE_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/support/hash.h"

namespace efeu {

// Open-addressing multimap from 64-bit fingerprints to 32-bit values: a
// power-of-two slot array with linear probing, kept at most half full. What
// a value means, and when two entries with one fingerprint are the same, is
// the caller's business: lookups walk every slot carrying the fingerprint and
// ask `same(value)`.
//
// A slot's place is taken from the high bits of fingerprint * phi, so it
// depends on every fingerprint bit. Clear() is O(1): a slot counts as
// occupied only while its generation is the index's.
class FingerprintIndex {
 public:
  FingerprintIndex() { Reset(kMinBits); }

  // The value stored under `fingerprint` for which same(value) holds, or
  // nullptr. Among several such entries, the first in probe order.
  template <typename Same>
  const uint32_t* Find(uint64_t fingerprint, Same&& same) const {
    for (size_t i = Home(fingerprint);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        return nullptr;
      }
      if (slot.fingerprint == fingerprint && same(slot.value)) {
        return &slot.value;
      }
    }
  }
  template <typename Same>
  uint32_t* Find(uint64_t fingerprint, Same&& same) {
    return const_cast<uint32_t*>(std::as_const(*this).Find(fingerprint, same));
  }

  // Find, inserting {fingerprint, value} when nothing matches. Returns the
  // stored value's slot and whether it was inserted.
  template <typename Same>
  std::pair<uint32_t*, bool> FindOrInsert(uint64_t fingerprint, uint32_t value, Same&& same) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    for (size_t i = Home(fingerprint);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot = Slot{fingerprint, value, generation_};
        ++size_;
        return {&slot.value, true};
      }
      if (slot.fingerprint == fingerprint && same(slot.value)) {
        return {&slot.value, false};
      }
    }
  }

  // Adds {fingerprint, value} unconditionally.
  void Insert(uint64_t fingerprint, uint32_t value) {
    FindOrInsert(fingerprint, value, [](uint32_t) { return false; });
  }

  // Removes the entry {fingerprint, value}, if present.
  void Erase(uint64_t fingerprint, uint32_t value);

  void Clear();
  size_t size() const { return size_; }

 private:
  static constexpr int kMinBits = 4;

  struct Slot {
    uint64_t fingerprint = 0;
    uint32_t value = 0;
    // Occupied iff equal to the index's generation_ (which is never 0).
    uint32_t generation = 0;
  };

  size_t Home(uint64_t fingerprint) const {
    return static_cast<size_t>((fingerprint * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Reset(int bits);
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

struct StateTableOptions {
  // Store 8-byte fingerprints instead of full state vectors.
  bool fingerprint_only = false;
  // Remember the minimum progress credit per state and re-admit claims with
  // a strictly lower credit.
  bool track_progress = false;
};

class StateTable {
 public:
  explicit StateTable(const StateTableOptions& options = {}) : options_(options) {}

  // Claims `state` for exploration. Returns true when the caller should
  // explore it: the state is new, or (with track_progress) it was reached
  // with a strictly lower progress credit than every earlier visit.
  bool Claim(std::span<const int32_t> state, uint64_t progress = 0) {
    return ClaimHashed(HashWords(state), state, progress);
  }
  // Same, with the caller-precomputed HashWords(state) fingerprint.
  bool ClaimHashed(uint64_t fingerprint, std::span<const int32_t> state, uint64_t progress = 0);

  // Read-only variant: whether Claim would return true, without inserting.
  bool WouldClaim(std::span<const int32_t> state, uint64_t progress = 0) const {
    return WouldClaimHashed(HashWords(state), state, progress);
  }
  bool WouldClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                        uint64_t progress = 0) const;

  // Distinct states stored.
  uint64_t size() const { return count_; }
  // Bytes of state payload held: per state its key words (or the 8-byte
  // fingerprint), plus 8 for the progress credit when tracked — the bench's
  // bytes/state numerator. The slot array is not counted.
  uint64_t payload_bytes() const;

  // Empties the table, keeping its memory; the next claim sets a new key
  // width.
  void Clear();

 private:
  static constexpr int kChunkShift = 10;
  static constexpr uint32_t kChunkEntries = 1u << kChunkShift;

  // Whether `state` has the table's key width (any width while none is set).
  bool HasKeyWidth(std::span<const int32_t> state) const {
    return key_width_ < 0 || static_cast<size_t>(key_width_) == state.size();
  }
  // Whether entry `entry` is `state` (always, fingerprint-only).
  bool SameKey(uint32_t entry, std::span<const int32_t> state) const;

  StateTableOptions options_;
  // fingerprint -> entry number.
  FingerprintIndex index_;
  // Exact mode only: entry e's key words at offset
  // (e % kChunkEntries) * width of key_chunks_[e / kChunkEntries]. Clear()
  // empties the chunks and keeps their capacity.
  std::vector<std::vector<int32_t>> key_chunks_;
  // Entry e's minimum progress credit; track_progress only.
  std::vector<uint64_t> progress_;
  uint32_t count_ = 0;
  // Set by the first claim; -1 while the table is empty.
  int64_t key_width_ = -1;
};

}  // namespace efeu

#endif  // SRC_SUPPORT_STATE_TABLE_H_
