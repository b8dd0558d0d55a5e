#include "src/check/state_codec.h"

#include <algorithm>

#include "src/support/hash.h"

namespace efeu::check {

CollapseTable::CollapseTable(std::vector<int> sizes) : per_process_(sizes.size()) {
  for (size_t p = 0; p < sizes.size(); ++p) {
    per_process_[p].size = sizes[p];
  }
}

int32_t CollapseTable::Intern(int process, std::span<const int32_t> snapshot) {
  PerProcess& pp = per_process_[static_cast<size_t>(process)];
  const int32_t id = pp.count;
  auto [stored_id, inserted] = pp.index.FindOrInsert(
      HashWords(snapshot), static_cast<uint32_t>(id), [&](uint32_t candidate) {
        return std::equal(snapshot.begin(), snapshot.end(),
                          Slot(pp, static_cast<int32_t>(candidate)));
      });
  if (!inserted) {
    return static_cast<int32_t>(*stored_id);
  }
  size_t chunk = static_cast<size_t>(id) >> kChunkShift;
  if (chunk == pp.chunks.size()) {
    pp.chunks.emplace_back().reserve(kChunkSize * static_cast<size_t>(pp.size));
  }
  pp.chunks[chunk].insert(pp.chunks[chunk].end(), snapshot.begin(), snapshot.end());
  pp.count = id + 1;
  payload_bytes_ += static_cast<uint64_t>(pp.size) * sizeof(int32_t) + sizeof(int32_t);
  return id;
}

void CollapseTable::Expand(int process, int32_t id, std::span<int32_t> out) const {
  const PerProcess& pp = per_process_[static_cast<size_t>(process)];
  const int32_t* stored = Slot(pp, id);
  std::copy(stored, stored + pp.size, out.begin());
}

uint64_t CollapseTable::components() const {
  uint64_t total = 0;
  for (const PerProcess& pp : per_process_) {
    total += static_cast<uint64_t>(pp.count);
  }
  return total;
}

StateCodec::StateCodec(CheckedSystem& system, CollapseTable* table)
    : system_(system), table_(table) {
  int process_count = system.process_count();
  sizes_.resize(static_cast<size_t>(process_count));
  offsets_.resize(static_cast<size_t>(process_count));
  int total = 0;
  for (int p = 0; p < process_count; ++p) {
    sizes_[static_cast<size_t>(p)] = system.process(p).SnapshotSize();
    offsets_[static_cast<size_t>(p)] = total;
    total += sizes_[static_cast<size_t>(p)];
  }
  if (table_ != nullptr) {
    key_size_ = process_count;
    current_.assign(static_cast<size_t>(process_count), kDirty);
    full_.resize(static_cast<size_t>(total));
  } else {
    key_size_ = total;
  }
}

void StateCodec::EncodeProcess(int process) {
  std::span<int32_t> slice = Slice(static_cast<size_t>(process));
  system_.process(process).Snapshot(slice);
  current_[static_cast<size_t>(process)] = table_->Intern(process, slice);
}

void StateCodec::EncodeFull(std::vector<int32_t>* key) {
  if (table_ == nullptr) {
    key->resize(static_cast<size_t>(key_size_));
    for (size_t p = 0; p < sizes_.size(); ++p) {
      system_.process(static_cast<int>(p))
          .Snapshot(std::span<int32_t>(*key).subspan(static_cast<size_t>(offsets_[p]),
                                                     static_cast<size_t>(sizes_[p])));
    }
    return;
  }
  for (size_t p = 0; p < sizes_.size(); ++p) {
    EncodeProcess(static_cast<int>(p));
  }
  *key = current_;
}

void StateCodec::NoteStep(const CheckedSystem::Transition& t) {
  if (table_ == nullptr) {
    return;
  }
  current_[static_cast<size_t>(t.process)] = kDirty;
  if (t.kind == CheckedSystem::Transition::Kind::kTransfer) {
    current_[static_cast<size_t>(t.peer)] = kDirty;
  }
}

void StateCodec::EncodeStep(std::vector<int32_t>* key) {
  if (table_ == nullptr) {
    EncodeFull(key);
    return;
  }
  for (size_t p = 0; p < current_.size(); ++p) {
    if (current_[p] == kDirty) {
      EncodeProcess(static_cast<int>(p));
    }
  }
  *key = current_;
}

void StateCodec::Restore(const std::vector<int32_t>& key) {
  if (table_ == nullptr) {
    system_.RestoreAll(key);
    return;
  }
  for (size_t p = 0; p < current_.size(); ++p) {
    if (current_[p] == key[p]) {
      continue;  // Live process already holds this component.
    }
    std::span<int32_t> slice = Slice(p);
    table_->Expand(static_cast<int>(p), key[p], slice);
    system_.process(static_cast<int>(p)).Restore(slice);
    current_[p] = key[p];
  }
}

}  // namespace efeu::check
