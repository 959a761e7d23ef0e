// Hash-sharded controller flow table.
//
// The paper's controller keeps up with per-sub-window AFR floods by merging
// on multiple DPDK lcores (§8). The safe way to parallelise the merge is the
// one Packet Transactions-style atomicity suggests: keep every per-record
// merge single-location, and make the locations disjoint. A
// ShardedKeyValueTable hash-partitions flow keys across N independent
// KeyValueTable shards; a record's shard depends only on its key, so two
// workers operating on different shards never touch the same slot and the
// merged contents are identical for every shard count.
//
// Each shard is a plain KeyValueTable, so the stable-offset property the
// RDMA path needs (§7) holds per shard: (shard, slot, attr) still names a
// fixed byte address for the lifetime of the key.
#pragma once

#include <cstdint>
#include <vector>

#include "src/controller/key_value_table.h"

namespace ow {

class ShardedKeyValueTable {
 public:
  /// `capacity` is the TOTAL slot budget, split evenly across `shards`
  /// (rounded up to powers of two). A single shard behaves exactly like a
  /// bare KeyValueTable.
  explicit ShardedKeyValueTable(std::size_t capacity, std::size_t shards = 1);

  /// Shard owning `key`. Depends only on the key (never on table contents),
  /// so a batch partition is stable and workers can own shards outright.
  std::size_t ShardOf(const FlowKey& key) const noexcept {
    return static_cast<std::size_t>(key.Hash(kShardSeed)) & shard_mask_;
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  KeyValueTable& shard(std::size_t i) { return shards_[i]; }
  const KeyValueTable& shard(std::size_t i) const { return shards_[i]; }

  // Single-threaded facade mirroring KeyValueTable (routes by ShardOf).
  KvSlot* Find(const FlowKey& key);
  const KvSlot* Find(const FlowKey& key) const;
  KvSlot& FindOrInsert(const FlowKey& key, bool& created);
  KvSlot* TryFindOrInsert(const FlowKey& key, bool& created);
  bool Erase(const FlowKey& key);
  void Clear();

  std::size_t size() const noexcept;      ///< live keys across shards
  std::size_t capacity() const noexcept;  ///< total slots across shards
  double load_factor() const noexcept;
  /// Inserts refused at the per-shard load limit, summed across shards
  /// (monotonic across Clear, like KeyValueTable::rejected_inserts).
  std::uint64_t rejected_inserts() const noexcept;

  /// Call `fn(slot)` for every live slot, shard by shard, each shard in
  /// slot-index order (see KeyValueTable::ForEach for the cost).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (KeyValueTable& s : shards_) s.ForEach(fn);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const KeyValueTable& s : shards_) s.ForEach(fn);
  }

  /// Checkpoint every shard (`mode` selects the per-shard encoding — see
  /// KvSnapshotMode). Load verifies the shard count matches (shard routing
  /// depends on it) and throws SnapshotError otherwise. Load is all or
  /// nothing: it decodes every shard before committing any, so on a throw
  /// no shard has changed.
  void Save(SnapshotWriter& w,
            KvSnapshotMode mode = KvSnapshotMode::kAuto) const;
  void Load(SnapshotReader& r);

 private:
  // OmniWindowController::Load decodes its whole section before committing.
  friend class OmniWindowController;
  using Decoded = std::vector<KeyValueTable::Decoded>;
  Decoded Decode(SnapshotReader& r) const;
  void Commit(Decoded&& d) noexcept;

  /// Distinct from KeyValueTable's probe seed so shard choice and in-shard
  /// probe position are uncorrelated.
  static constexpr std::uint64_t kShardSeed = 0x5A4DD5EEDull;

  std::vector<KeyValueTable> shards_;
  std::size_t shard_mask_ = 0;
};

/// Read-only view over either a bare KeyValueTable or a sharded one.
///
/// Window consumers (detection queries, cardinality estimators, loss
/// inference) only ever Find and ForEach; this view lets their signatures
/// accept both table shapes, so unit tests keep handing in bare tables
/// while the controller hands out its sharded one. Implicitly convertible
/// from both — pass by value, it is two pointers.
class TableView {
 public:
  /*implicit*/ TableView(const KeyValueTable& table) : single_(&table) {}
  /*implicit*/ TableView(const ShardedKeyValueTable& table)
      : sharded_(&table) {}

  const KvSlot* Find(const FlowKey& key) const {
    return single_ ? single_->Find(key) : sharded_->Find(key);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (single_) {
      single_->ForEach(fn);
    } else {
      sharded_->ForEach(fn);
    }
  }
  std::size_t size() const noexcept {
    return single_ ? single_->size() : sharded_->size();
  }

 private:
  const KeyValueTable* single_ = nullptr;
  const ShardedKeyValueTable* sharded_ = nullptr;
};

}  // namespace ow
