#include "src/controller/sharded_key_value_table.h"

#include <bit>

#include "src/common/snapshot.h"

namespace ow {

ShardedKeyValueTable::ShardedKeyValueTable(std::size_t capacity,
                                          std::size_t shards) {
  if (shards < 1) shards = 1;
  shards = std::bit_ceil(shards);
  shard_mask_ = shards - 1;
  const std::size_t per_shard = std::max<std::size_t>(8, capacity / shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.emplace_back(per_shard);
  }
}

KvSlot* ShardedKeyValueTable::Find(const FlowKey& key) {
  return shards_[ShardOf(key)].Find(key);
}

const KvSlot* ShardedKeyValueTable::Find(const FlowKey& key) const {
  return shards_[ShardOf(key)].Find(key);
}

KvSlot& ShardedKeyValueTable::FindOrInsert(const FlowKey& key, bool& created) {
  return shards_[ShardOf(key)].FindOrInsert(key, created);
}

KvSlot* ShardedKeyValueTable::TryFindOrInsert(const FlowKey& key,
                                              bool& created) {
  return shards_[ShardOf(key)].TryFindOrInsert(key, created);
}

bool ShardedKeyValueTable::Erase(const FlowKey& key) {
  return shards_[ShardOf(key)].Erase(key);
}

void ShardedKeyValueTable::Clear() {
  for (auto& s : shards_) s.Clear();
}

std::size_t ShardedKeyValueTable::size() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.size();
  return n;
}

std::size_t ShardedKeyValueTable::capacity() const noexcept {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.capacity();
  return n;
}

double ShardedKeyValueTable::load_factor() const noexcept {
  const std::size_t cap = capacity();
  return cap == 0 ? 0.0 : double(size()) / double(cap);
}

std::uint64_t ShardedKeyValueTable::rejected_inserts() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s.rejected_inserts();
  return n;
}

void ShardedKeyValueTable::Save(SnapshotWriter& w, KvSnapshotMode mode) const {
  w.Size(shards_.size());
  for (const KeyValueTable& s : shards_) s.Save(w, mode);
}

ShardedKeyValueTable::Decoded ShardedKeyValueTable::Decode(
    SnapshotReader& r) const {
  CheckShape(snap::kKvTable, "ShardedKeyValueTable", "shard count",
             shards_.size(), r.Size());
  Decoded decoded;
  decoded.reserve(shards_.size());
  for (const KeyValueTable& s : shards_) decoded.push_back(s.Decode(r));
  return decoded;
}

void ShardedKeyValueTable::Commit(Decoded&& d) noexcept {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].Commit(std::move(d[i]));
  }
}

// Decode every shard before committing any: a stream that fails in a later
// shard leaves the whole table unchanged.
void ShardedKeyValueTable::Load(SnapshotReader& r) { Commit(Decode(r)); }

}  // namespace ow
