#include "src/support/state_table.h"

#include <algorithm>

#include "src/support/check.h"

namespace efeu {

void FingerprintIndex::Reset(int bits) {
  slots_.assign(size_t{1} << bits, Slot{});
  mask_ = slots_.size() - 1;
  shift_ = 64 - bits;
  size_ = 0;
  generation_ = 1;
}

void FingerprintIndex::Grow() {
  EFEU_CHECK(shift_ > 33, "FingerprintIndex: more than 2^30 entries");
  std::vector<Slot> old = std::move(slots_);
  const uint32_t old_generation = generation_;
  Reset(64 - shift_ + 1);
  for (const Slot& slot : old) {
    if (slot.generation != old_generation) {
      continue;
    }
    size_t i = Home(slot.fingerprint);
    while (slots_[i].generation == generation_) {
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{slot.fingerprint, slot.value, generation_};
    ++size_;
  }
}

void FingerprintIndex::Erase(uint64_t fingerprint, uint32_t value) {
  size_t hole = Home(fingerprint);
  for (;; hole = (hole + 1) & mask_) {
    const Slot& slot = slots_[hole];
    if (slot.generation != generation_) {
      return;  // Absent.
    }
    if (slot.fingerprint == fingerprint && slot.value == value) {
      break;
    }
  }
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole when the hole lies between its home and its slot, so no lookup ever
  // stops early at the emptied slot.
  for (size_t i = (hole + 1) & mask_; slots_[i].generation == generation_; i = (i + 1) & mask_) {
    size_t home = Home(slots_[i].fingerprint);
    if (((i - home) & mask_) >= ((i - hole) & mask_)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole].generation = 0;
  --size_;
}

void FingerprintIndex::Clear() {
  if (++generation_ == 0) {
    // Wrapped: slots stamped 2^32 clears ago would read as occupied again.
    std::fill(slots_.begin(), slots_.end(), Slot{});
    generation_ = 1;
  }
  size_ = 0;
}

bool StateTable::SameKey(uint32_t entry, std::span<const int32_t> state) const {
  if (options_.fingerprint_only) {
    return true;
  }
  const int32_t* stored =
      key_chunks_[entry >> kChunkShift].data() + (entry & (kChunkEntries - 1)) * state.size();
  return std::equal(state.begin(), state.end(), stored);
}

bool StateTable::ClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                             uint64_t progress) {
  EFEU_CHECK(HasKeyWidth(state), "StateTable: state width differs from the table's key width");
  key_width_ = static_cast<int64_t>(state.size());
  const uint32_t entry = count_;
  auto [stored, inserted] = index_.FindOrInsert(
      fingerprint, entry, [&](uint32_t e) { return SameKey(e, state); });
  if (inserted) {
    if (!options_.fingerprint_only) {
      size_t chunk = entry >> kChunkShift;
      if (chunk == key_chunks_.size()) {
        key_chunks_.emplace_back();
      }
      std::vector<int32_t>& words = key_chunks_[chunk];
      if (words.empty()) {
        words.reserve(kChunkEntries * state.size());
      }
      words.insert(words.end(), state.begin(), state.end());
    }
    if (options_.track_progress) {
      progress_.push_back(progress);
    }
    count_ = entry + 1;
    return true;
  }
  if (options_.track_progress && progress < progress_[*stored]) {
    progress_[*stored] = progress;
    return true;
  }
  return false;
}

bool StateTable::WouldClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                                  uint64_t progress) const {
  EFEU_CHECK(HasKeyWidth(state), "StateTable: state width differs from the table's key width");
  const uint32_t* stored =
      index_.Find(fingerprint, [&](uint32_t e) { return SameKey(e, state); });
  if (stored == nullptr) {
    return true;
  }
  return options_.track_progress && progress < progress_[*stored];
}

uint64_t StateTable::payload_bytes() const {
  uint64_t per_state = options_.fingerprint_only
                           ? sizeof(uint64_t)
                           : static_cast<uint64_t>(std::max<int64_t>(key_width_, 0)) *
                                 sizeof(int32_t);
  if (options_.track_progress) {
    per_state += sizeof(uint64_t);
  }
  return size() * per_state;
}

void StateTable::Clear() {
  index_.Clear();
  for (std::vector<int32_t>& words : key_chunks_) {
    words.clear();
  }
  progress_.clear();
  count_ = 0;
  key_width_ = -1;
}

}  // namespace efeu
