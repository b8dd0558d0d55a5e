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

ShardedStateTable::ShardedStateTable(const StateTableOptions& options) : options_(options) {
  int shards = options_.num_shards < 1 ? 1 : options_.num_shards;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ShardedStateTable::CheckKeyWidth(std::span<const int32_t> state) const {
  int64_t width = key_width_.load(std::memory_order_relaxed);
  if (width < 0 && key_width_.compare_exchange_strong(width, static_cast<int64_t>(state.size()),
                                                      std::memory_order_relaxed)) {
    width = static_cast<int64_t>(state.size());
  }
  EFEU_CHECK(static_cast<size_t>(width) == state.size(),
             "ShardedStateTable: state width differs from the table's key width");
}

bool ShardedStateTable::SameKey(const Shard& shard, uint32_t entry,
                                std::span<const int32_t> state) const {
  if (options_.fingerprint_only) {
    return true;
  }
  const int32_t* stored = shard.key_chunks[entry >> kChunkShift].data() +
                          (entry & (kChunkEntries - 1)) * state.size();
  return std::equal(state.begin(), state.end(), stored);
}

bool ShardedStateTable::ClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                                    uint64_t progress) {
  CheckKeyWidth(state);
  Shard& shard = shard_for(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint64_t entry = shard.count.load(std::memory_order_relaxed);
  auto [stored, inserted] =
      shard.index.FindOrInsert(fingerprint, static_cast<uint32_t>(entry),
                               [&](uint32_t e) { return SameKey(shard, e, state); });
  if (inserted) {
    if (!options_.fingerprint_only) {
      size_t chunk = entry >> kChunkShift;
      if (chunk == shard.key_chunks.size()) {
        shard.key_chunks.emplace_back();
      }
      std::vector<int32_t>& words = shard.key_chunks[chunk];
      if (words.empty()) {
        words.reserve(kChunkEntries * state.size());
      }
      words.insert(words.end(), state.begin(), state.end());
    }
    if (options_.track_progress) {
      shard.progress.push_back(progress);
    }
    shard.count.store(entry + 1, std::memory_order_relaxed);
    return true;
  }
  if (options_.track_progress && progress < shard.progress[*stored]) {
    shard.progress[*stored] = progress;
    return true;
  }
  return false;
}

bool ShardedStateTable::WouldClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                                         uint64_t progress) const {
  CheckKeyWidth(state);
  Shard& shard = shard_for(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  const uint32_t* stored =
      shard.index.Find(fingerprint, [&](uint32_t e) { return SameKey(shard, e, state); });
  if (stored == nullptr) {
    return true;
  }
  return options_.track_progress && progress < shard.progress[*stored];
}

uint64_t ShardedStateTable::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedStateTable::payload_bytes() const {
  int64_t width = std::max<int64_t>(key_width_.load(std::memory_order_relaxed), 0);
  uint64_t per_state =
      options_.fingerprint_only ? sizeof(uint64_t) : static_cast<uint64_t>(width) * sizeof(int32_t);
  if (options_.track_progress) {
    per_state += sizeof(uint64_t);
  }
  return size() * per_state;
}

void ShardedStateTable::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.Clear();
    for (std::vector<int32_t>& words : shard->key_chunks) {
      words.clear();
    }
    shard->progress.clear();
    shard->count.store(0, std::memory_order_relaxed);
  }
  key_width_.store(-1, std::memory_order_relaxed);
}

}  // namespace efeu
