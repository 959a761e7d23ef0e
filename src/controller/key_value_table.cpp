#include "src/controller/key_value_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "src/common/snapshot.h"

namespace ow {

KeyValueTable::KeyValueTable(std::size_t capacity) {
  if (capacity < 8) capacity = 8;
  capacity = std::bit_ceil(capacity);
  slots_.resize(capacity);
  used_bits_.resize((capacity + 63) / 64);
  mask_ = capacity - 1;
}

namespace {

/// Zero a slot's bytes, padding included: an empty slot is byte-identical
/// to a freshly constructed one (KvSlot{} is all zeros), so dense
/// checkpoints of equal tables are equal byte for byte.
void ZeroSlot(KvSlot& s) { std::memset(static_cast<void*>(&s), 0, sizeof s); }

}  // namespace

std::uint64_t KeyValueTable::HashOf(const FlowKey& key) {
  return key.Hash(0x7AB1E0FFull);
}

std::size_t KeyValueTable::Probe(const FlowKey& key) const {
  return static_cast<std::size_t>(HashOf(key)) & mask_;
}

KvSlot* KeyValueTable::Find(const FlowKey& key) {
  const std::uint64_t h = HashOf(key);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  for (std::size_t n = 0; n <= mask_; ++n, i = (i + 1) & mask_) {
    KvSlot& s = slots_[i];
    if (s.state == KvSlot::State::kEmpty) return nullptr;
    if (s.state == KvSlot::State::kLive && s.hash_tag == tag && s.key == key) {
      return &s;
    }
  }
  return nullptr;
}

const KvSlot* KeyValueTable::Find(const FlowKey& key) const {
  return const_cast<KeyValueTable*>(this)->Find(key);
}

KvSlot& KeyValueTable::FindOrInsert(const FlowKey& key, bool& created) {
  if (KvSlot* s = TryFindOrInsert(key, created)) return *s;
  throw std::length_error("KeyValueTable: load factor exceeded");
}

KvSlot* KeyValueTable::TryFindOrInsert(const FlowKey& key, bool& created) {
  const std::uint64_t h = HashOf(key);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = static_cast<std::size_t>(h) & mask_;
  KvSlot* first_tombstone = nullptr;
  for (std::size_t n = 0; n <= mask_; ++n, i = (i + 1) & mask_) {
    KvSlot& s = slots_[i];
    if (s.state == KvSlot::State::kLive && s.hash_tag == tag && s.key == key) {
      created = false;
      return &s;
    }
    if (s.state == KvSlot::State::kTombstone && !first_tombstone) {
      first_tombstone = &s;
    }
    if (s.state == KvSlot::State::kEmpty) {
      KvSlot& target = first_tombstone ? *first_tombstone : s;
      if (used_ + 1 > slots_.size() - slots_.size() / 8 && !first_tombstone) {
        ++rejected_;
        return nullptr;
      }
      if (!first_tombstone) {
        ++used_;
        used_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
      }
      target = KvSlot{};
      target.key = key;
      target.hash_tag = tag;
      target.state = KvSlot::State::kLive;
      ++live_;
      created = true;
      return &target;
    }
  }
  ++rejected_;
  return nullptr;
}

bool KeyValueTable::Erase(const FlowKey& key) {
  KvSlot* s = Find(key);
  if (!s) return false;
  s->state = KvSlot::State::kTombstone;
  --live_;
  return true;
}

void KeyValueTable::Clear() {
  ForEachOccupied([&](std::size_t i) { ZeroSlot(slots_[i]); });
  std::fill(used_bits_.begin(), used_bits_.end(), 0);
  live_ = 0;
  used_ = 0;
}

std::size_t KeyValueTable::SlotIndex(const KvSlot& slot) const {
  return static_cast<std::size_t>(&slot - slots_.data());
}

std::size_t KeyValueTable::AttrOffsetBytes(std::size_t slot_index,
                                           std::size_t attr) const {
  return slot_index * sizeof(KvSlot) + offsetof(KvSlot, attrs) + attr * 8;
}

void KeyValueTable::Save(SnapshotWriter& w, KvSnapshotMode mode) const {
  if (mode == KvSnapshotMode::kAuto) {
    mode = used_ < SparseSaveThreshold(slots_.size()) ? KvSnapshotMode::kSparse
                                                      : KvSnapshotMode::kDense;
  }
  w.Section(snap::kKvTable);
  w.U8(mode == KvSnapshotMode::kSparse ? 1 : 0);
  w.Size(slots_.size());
  if (mode == KvSnapshotMode::kSparse) {
    w.Size(used_);
    ForEachOccupied([&](std::size_t i) {
      w.U64(i);
      w.Pod(slots_[i]);
    });
  } else {
    w.Bytes(slots_.data(), slots_.size() * sizeof(KvSlot));
  }
  w.Size(live_);
  w.Size(used_);
  w.U64(rejected_);
}

KeyValueTable::Decoded KeyValueTable::Decode(SnapshotReader& r) const {
  r.Section(snap::kKvTable);
  const std::size_t cap = slots_.size();
  const std::uint8_t mode = r.U8();
  if (mode > 1) {
    throw SnapshotError("KeyValueTable: unknown encoding mode " +
                        std::to_string(mode));
  }
  // Everything below validates against scratch state; this table is only
  // touched by Commit, once the whole section (counts included) has checked
  // out, so a caller that catches the throw keeps a usable, unchanged table.
  CheckShape(snap::kKvTable, "KeyValueTable", "capacity", cap, r.Size());
  Decoded d;
  std::vector<KvSlot>& scratch = d.slots;
  scratch.resize(cap);
  if (mode == 1) {
    const std::size_t occupied = r.Count(8 + sizeof(KvSlot));
    if (occupied > cap) {
      throw SnapshotError("KeyValueTable: " + std::to_string(occupied) +
                          " sparse slots exceed capacity " +
                          std::to_string(cap));
    }
    std::uint64_t prev = 0;
    for (std::size_t n = 0; n < occupied; ++n) {
      const std::uint64_t idx = r.U64();
      if (idx >= cap || (n > 0 && idx <= prev)) {
        throw SnapshotError("KeyValueTable: sparse slot index " +
                            std::to_string(idx) + " out of order or beyond "
                            "capacity " + std::to_string(cap));
      }
      r.Pod(scratch[idx]);
      prev = idx;
    }
  } else {
    r.Bytes(scratch.data(), cap * sizeof(KvSlot));
  }
  const std::size_t live = r.Size();
  const std::size_t used = r.Size();
  d.rejected = r.U64();
  // Verify the stream's tallies against the array it described: a corrupt
  // state byte or dropped sparse entry surfaces here, not as a probe-chain
  // heisenbug three windows later. The same pass rebuilds the used bitmap,
  // checks every occupied slot's key (CheckFlowKey), and zeroes every empty
  // slot (a dense stream may carry stray bytes in one), which Clear relies
  // on when it resets only occupied slots.
  d.used_bits.resize(used_bits_.size());
  std::size_t rebuilt_live = 0, rebuilt_used = 0;
  for (std::size_t i = 0; i < cap; ++i) {
    // Compare as raw bytes: the state came off an untrusted stream and may
    // hold a value no enumerator names.
    const std::uint8_t st = static_cast<std::uint8_t>(scratch[i].state);
    if (st == static_cast<std::uint8_t>(KvSlot::State::kEmpty)) {
      ZeroSlot(scratch[i]);
      continue;
    }
    if (st == static_cast<std::uint8_t>(KvSlot::State::kLive)) {
      ++rebuilt_live;
    } else if (st != static_cast<std::uint8_t>(KvSlot::State::kTombstone)) {
      throw SnapshotError("KeyValueTable: invalid slot state " +
                          std::to_string(unsigned(st)));
    }
    CheckFlowKey(r, scratch[i].key);
    ++rebuilt_used;
    d.used_bits[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  CheckShape(snap::kKvTable, "KeyValueTable", "live slots", rebuilt_live,
             live);
  CheckShape(snap::kKvTable, "KeyValueTable", "occupied slots", rebuilt_used,
             used);
  d.live = live;
  d.used = used;
  return d;
}

void KeyValueTable::Commit(Decoded&& d) noexcept {
  // Copy into the existing array rather than adopting d.slots: the backing
  // address is what RDMA registration and published slot offsets point at.
  std::memcpy(slots_.data(), d.slots.data(), slots_.size() * sizeof(KvSlot));
  used_bits_.swap(d.used_bits);
  live_ = d.live;
  used_ = d.used;
  rejected_ = d.rejected;
}

void KeyValueTable::Load(SnapshotReader& r) { Commit(Decode(r)); }

}  // namespace ow
