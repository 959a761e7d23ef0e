// Tests for the controller data structures: key-value table (including its
// occupancy-bitmap walks against a full-capacity reference scan), merge
// strategies, batch kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/snapshot.h"
#include "src/controller/key_value_table.h"
#include "src/controller/merge.h"
#include "src/controller/sharded_key_value_table.h"

namespace ow {
namespace {

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

FlowRecord Rec(std::uint32_t id, std::uint64_t v, SubWindowNum sw = 0) {
  FlowRecord r;
  r.key = Key(id);
  r.attrs[0] = v;
  r.num_attrs = 1;
  r.subwindow = sw;
  return r;
}

TEST(KeyValueTable, InsertFindErase) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
  slot.attrs[0] = 42;
  EXPECT_EQ(table.size(), 1u);

  KvSlot* found = table.Find(Key(1));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->attrs[0], 42u);

  EXPECT_TRUE(table.Erase(Key(1)));
  EXPECT_EQ(table.Find(Key(1)), nullptr);
  EXPECT_FALSE(table.Erase(Key(1)));
  EXPECT_EQ(table.size(), 0u);
}

TEST(KeyValueTable, TombstoneThenReinsertReusesSlot) {
  KeyValueTable table(64);
  bool created = false;
  table.FindOrInsert(Key(1), created);
  table.Erase(Key(1));
  KvSlot& again = table.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
  EXPECT_EQ(again.attrs[0], 0u);  // fresh slot content
  EXPECT_EQ(table.size(), 1u);
}

TEST(KeyValueTable, SurvivesManyKeysWithProbing) {
  KeyValueTable table(4096);
  bool created = false;
  for (std::uint32_t i = 0; i < 3'000; ++i) {
    table.FindOrInsert(Key(i), created).attrs[0] = i;
  }
  EXPECT_EQ(table.size(), 3'000u);
  for (std::uint32_t i = 0; i < 3'000; ++i) {
    KvSlot* s = table.Find(Key(i));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->attrs[0], i);
  }
}

TEST(KeyValueTable, RefusesOverload) {
  KeyValueTable table(16);
  bool created = false;
  EXPECT_THROW(
      {
        for (std::uint32_t i = 0; i < 16; ++i) {
          table.FindOrInsert(Key(i), created);
        }
      },
      std::length_error);
}

TEST(KeyValueTable, StableOffsetsForRdma) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(9), created);
  const std::size_t idx = table.SlotIndex(slot);
  const std::size_t off0 = table.AttrOffsetBytes(idx, 0);
  const std::size_t off1 = table.AttrOffsetBytes(idx, 1);
  EXPECT_EQ(off1 - off0, 8u);
  // Inserting more keys must not move the slot (tombstone design).
  for (std::uint32_t i = 100; i < 120; ++i) table.FindOrInsert(Key(i), created);
  EXPECT_EQ(&slot, table.Find(Key(9)));
}

TEST(KeyValueTable, CollisionHeavyChainsResolveCorrectly) {
  // A minimum-size table (8 slots, 7 usable) forces every key into one probe
  // chain, so lookups must walk past slots whose index collides but whose
  // cached hash_tag (and key) differ. Regression for the tag-before-key
  // compare: a wrong/stale tag makes a live key unfindable.
  KeyValueTable table(8);
  ASSERT_EQ(table.capacity(), 8u);
  bool created = false;
  for (std::uint32_t i = 0; i < 7; ++i) {
    table.FindOrInsert(Key(i), created).attrs[0] = 1000 + i;
    EXPECT_TRUE(created);
  }
  for (std::uint32_t i = 0; i < 7; ++i) {
    KvSlot* s = table.Find(Key(i));
    ASSERT_NE(s, nullptr) << "key " << i;
    EXPECT_EQ(s->attrs[0], 1000u + i);
    EXPECT_EQ(s->key, Key(i));
  }
  // Re-lookup through FindOrInsert must not create duplicates.
  for (std::uint32_t i = 0; i < 7; ++i) {
    table.FindOrInsert(Key(i), created);
    EXPECT_FALSE(created) << "key " << i;
  }
  EXPECT_EQ(table.size(), 7u);
  // An absent key must walk the full chain and miss.
  EXPECT_EQ(table.Find(Key(999)), nullptr);
}

TEST(KeyValueTable, TombstoneReuseRefreshesHashTag) {
  // Erase leaves the old key's tag behind in the tombstone; reusing that
  // slot for a DIFFERENT key must overwrite the tag, or the new key becomes
  // unfindable under the tag-first compare. Cycle insert/erase through an
  // 8-slot table: once tombstones saturate it, every successful insert goes
  // through tombstone reuse. (An insert can legitimately be refused when
  // its probe lands straight on the lone empty slot — tombstones count
  // toward the 7/8 load limit — so we only require that most succeed.)
  KeyValueTable table(8);
  bool created = false;
  std::uint32_t succeeded = 0;
  for (std::uint32_t i = 0; i < 32; ++i) {
    KvSlot* s = table.TryFindOrInsert(Key(i), created);
    if (!s) continue;  // refused at load limit; acceptable
    EXPECT_TRUE(created);
    s->attrs[0] = 1000 + i;
    KvSlot* found = table.Find(Key(i));
    ASSERT_NE(found, nullptr) << "key " << i << " vanished after insert";
    EXPECT_EQ(found->attrs[0], 1000u + i);
    EXPECT_TRUE(table.Erase(Key(i)));
    EXPECT_EQ(table.Find(Key(i)), nullptr);
    ++succeeded;
  }
  // The table never rejects everything: reuse keeps working.
  EXPECT_GE(succeeded, 20u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(KeyValueTable, HighLoadRandomizedFindAll) {
  // Near the 7/8 load limit, chains are long and wrap the table; every
  // inserted key must remain findable with its own attrs.
  KeyValueTable table(1 << 12);
  const std::size_t n = (1 << 12) * 7 / 8 - 1;
  bool created = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    KvSlot* s = table.TryFindOrInsert(Key(i * 2654435761u), created);
    ASSERT_NE(s, nullptr) << "insert " << i;
    s->attrs[0] = i;
  }
  EXPECT_EQ(table.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KvSlot* s = table.Find(Key(i * 2654435761u));
    ASSERT_NE(s, nullptr) << "find " << i;
    EXPECT_EQ(s->attrs[0], i);
  }
}

TEST(KeyValueTable, SlotLayoutKeepsRdmaOffsets) {
  // The hash_tag field must not disturb the RDMA-published layout: attrs
  // offset and slot stride are part of the switch-facing address contract.
  EXPECT_EQ(offsetof(KvSlot, attrs), 16u);
  EXPECT_EQ(sizeof(KvSlot), 64u);
}

TEST(KeyValueTable, ForEachVisitsOnlyLive) {
  KeyValueTable table(64);
  bool created = false;
  table.FindOrInsert(Key(1), created);
  table.FindOrInsert(Key(2), created);
  table.Erase(Key(1));
  std::size_t visited = 0;
  table.ForEach([&](const KvSlot& s) {
    ++visited;
    EXPECT_EQ(s.key, Key(2));
  });
  EXPECT_EQ(visited, 1u);
}

// ------------------------------------------- occupancy-bitmap iteration

/// What a full-capacity scan of the slot array says the occupancy-driven
/// walks must produce: the live slot indices in index order, and the exact
/// bytes of a sparse checkpoint.
struct ReferenceWalk {
  std::vector<std::size_t> live;
  std::vector<std::uint8_t> sparse;
};

ReferenceWalk WalkAllSlots(KeyValueTable& table) {
  ReferenceWalk ref;
  std::vector<std::size_t> used;
  const KvSlot* slots = table.data();
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    if (slots[i].state == KvSlot::State::kEmpty) continue;
    used.push_back(i);
    if (slots[i].state == KvSlot::State::kLive) ref.live.push_back(i);
  }
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.U8(1);
  w.Size(table.capacity());
  w.Size(used.size());
  for (const std::size_t i : used) {
    w.U64(i);
    w.Pod(slots[i]);
  }
  w.Size(ref.live.size());
  w.Size(used.size());
  w.U64(table.rejected_inserts());
  ref.sparse = w.Take();
  return ref;
}

std::vector<std::size_t> VisitedIndices(const KeyValueTable& table) {
  std::vector<std::size_t> out;
  table.ForEach([&](const KvSlot& s) { out.push_back(table.SlotIndex(s)); });
  return out;
}

bool BackingIsFresh(KeyValueTable& table) {
  KeyValueTable fresh(table.capacity());
  return std::memcmp(table.data(), fresh.data(), table.backing_bytes()) == 0;
}

std::vector<std::uint8_t> SaveAs(const KeyValueTable& table,
                                 KvSnapshotMode mode) {
  SnapshotWriter w;
  table.Save(w, mode);
  return w.Take();
}

/// ForEach (mutable, const, through a TableView), sparse Save and Clear
/// against the full-capacity reference walk.
void ExpectWalksMatchReference(KeyValueTable& table) {
  const ReferenceWalk ref = WalkAllSlots(table);
  EXPECT_EQ(VisitedIndices(table), ref.live);
  std::vector<std::size_t> mutable_visit;
  table.ForEach(
      [&](KvSlot& s) { mutable_visit.push_back(table.SlotIndex(s)); });
  EXPECT_EQ(mutable_visit, ref.live);
  std::vector<std::size_t> view_visit;
  TableView(table).ForEach(
      [&](const KvSlot& s) { view_visit.push_back(table.SlotIndex(s)); });
  EXPECT_EQ(view_visit, ref.live);
  EXPECT_EQ(SaveAs(table, KvSnapshotMode::kSparse), ref.sparse);

  // Clear resets only occupied slots; the whole array must still come out
  // equal to a fresh table's, and the cleared table must walk (and refill)
  // like one.
  KeyValueTable cleared = table;
  cleared.Clear();
  EXPECT_EQ(cleared.size(), 0u);
  EXPECT_TRUE(BackingIsFresh(cleared));
  EXPECT_TRUE(VisitedIndices(cleared).empty());
  EXPECT_EQ(SaveAs(cleared, KvSnapshotMode::kSparse),
            WalkAllSlots(cleared).sparse);
  bool created = false;
  KvSlot& refill = cleared.FindOrInsert(Key(0xFEED), created);
  EXPECT_EQ(VisitedIndices(cleared),
            std::vector<std::size_t>{cleared.SlotIndex(refill)});
}

/// Inserts, erases and tombstone reuse across several bitmap words.
void Churn(KeyValueTable& table, std::uint32_t base) {
  bool created = false;
  for (std::uint32_t i = 0; i < 120; ++i) {
    table.FindOrInsert(Key(base + i), created).attrs[0] = i + 1;
  }
  for (std::uint32_t i = 0; i < 120; i += 3) table.Erase(Key(base + i));
  // Re-inserting erased keys and adding new ones reuses tombstones.
  for (std::uint32_t i = 0; i < 60; i += 6) {
    table.FindOrInsert(Key(base + i), created).attrs[0] = 7;
  }
  for (std::uint32_t i = 1000; i < 1020; ++i) {
    table.FindOrInsert(Key(base + i), created).attrs[0] = 9;
  }
}

TEST(KeyValueTable, OccupancyWalksMatchFullScanInEveryState) {
  KeyValueTable table(256);
  ExpectWalksMatchReference(table);  // empty
  Churn(table, 1);
  ExpectWalksMatchReference(table);

  // Fill to the 7/8 limit: the refused insert must not touch the bitmap.
  KeyValueTable full(256);
  bool created = false;
  std::uint32_t k = 1;
  while (full.TryFindOrInsert(Key(k), created)) ++k;
  EXPECT_EQ(full.rejected_inserts(), 1u);
  EXPECT_EQ(full.size(), 224u);
  ExpectWalksMatchReference(full);

  // Clear in place, then churn again from the cleared state.
  full.Clear();
  ExpectWalksMatchReference(full);
  EXPECT_TRUE(BackingIsFresh(full));
  Churn(full, 5000);
  ExpectWalksMatchReference(full);

  // Dense and sparse loads rebuild the bitmap from the stream, replacing
  // (not adding to) whatever the target held.
  for (const KvSnapshotMode mode :
       {KvSnapshotMode::kDense, KvSnapshotMode::kSparse}) {
    KeyValueTable target(256);
    Churn(target, 9000);
    const std::vector<std::uint8_t> bytes = SaveAs(table, mode);
    SnapshotReader r(bytes);
    target.Load(r);
    EXPECT_EQ(VisitedIndices(target), VisitedIndices(table));
    ExpectWalksMatchReference(target);
    EXPECT_EQ(SaveAs(target, KvSnapshotMode::kSparse),
              SaveAs(table, KvSnapshotMode::kSparse));
  }

  // A load that throws leaves slots and bitmap as they were: one stream
  // fails while reading, the other only at the tally check after the
  // bitmap has been rebuilt.
  std::vector<std::uint8_t> truncated = SaveAs(full, KvSnapshotMode::kSparse);
  truncated.resize(truncated.size() - 9);
  std::vector<std::uint8_t> bad_tally = SaveAs(full, KvSnapshotMode::kDense);
  bad_tally[bad_tally.size() - 24] ^= 1;  // the live-slot tally
  const std::vector<std::size_t> before = VisitedIndices(table);
  const std::vector<std::uint8_t> before_bytes =
      SaveAs(table, KvSnapshotMode::kSparse);
  for (const auto* bytes : {&truncated, &bad_tally}) {
    SnapshotReader r(*bytes);
    EXPECT_THROW(table.Load(r), SnapshotError);
    EXPECT_EQ(VisitedIndices(table), before);
    EXPECT_EQ(SaveAs(table, KvSnapshotMode::kSparse), before_bytes);
    ExpectWalksMatchReference(table);
  }
}

TEST(ShardedKeyValueTable, OccupancyWalksMatchPerShardFullScans) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedKeyValueTable table(1024, shards);
    bool created = false;
    for (std::uint32_t i = 1; i <= 300; ++i) {
      table.FindOrInsert(Key(i), created).attrs[0] = i;
    }
    for (std::uint32_t i = 1; i <= 300; i += 4) table.Erase(Key(i));
    for (std::uint32_t i = 1; i <= 100; i += 8) {
      table.FindOrInsert(Key(i), created);
    }

    // The sharded walk (direct and through a TableView) is each shard's
    // reference walk, shard by shard.
    const auto expected = [&] {
      std::vector<const KvSlot*> out;
      for (std::size_t s = 0; s < table.shard_count(); ++s) {
        KeyValueTable& shard = table.shard(s);
        ExpectWalksMatchReference(shard);
        for (const std::size_t i : WalkAllSlots(shard).live) {
          out.push_back(shard.data() + i);
        }
      }
      return out;
    };
    const auto visit = [&] {
      std::vector<const KvSlot*> out;
      table.ForEach([&](KvSlot& s) { out.push_back(&s); });
      std::vector<const KvSlot*> via_view;
      TableView(table).ForEach([&](const KvSlot& s) { via_view.push_back(&s); });
      EXPECT_EQ(via_view, out);
      return out;
    };
    EXPECT_EQ(visit(), expected());

    for (const KvSnapshotMode mode :
         {KvSnapshotMode::kDense, KvSnapshotMode::kSparse}) {
      SnapshotWriter w;
      table.Save(w, mode);
      const std::vector<std::uint8_t> bytes = w.Take();
      ShardedKeyValueTable copy(1024, shards);
      copy.FindOrInsert(Key(77777), created);
      SnapshotReader r(bytes);
      copy.Load(r);
      for (std::size_t s = 0; s < shards; ++s) {
        ExpectWalksMatchReference(copy.shard(s));
        EXPECT_EQ(VisitedIndices(copy.shard(s)),
                  VisitedIndices(table.shard(s)));
      }
    }

    table.Clear();
    EXPECT_EQ(visit(), expected());
    EXPECT_TRUE(visit().empty());
  }
}

// ----------------------------------------------------------------- merge

TEST(Merge, FrequencySums) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kFrequency, slot, true, Rec(1, 10, 0));
  ApplyMerge(MergeKind::kFrequency, slot, false, Rec(1, 32, 1));
  EXPECT_EQ(slot.attrs[0], 42u);
  EXPECT_EQ(slot.last_subwindow, 1u);
}

TEST(Merge, MaxAndMin) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& mx = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kMax, mx, true, Rec(1, 10));
  ApplyMerge(MergeKind::kMax, mx, false, Rec(1, 5));
  ApplyMerge(MergeKind::kMax, mx, false, Rec(1, 30));
  EXPECT_EQ(mx.attrs[0], 30u);

  KvSlot& mn = table.FindOrInsert(Key(2), created);
  ApplyMerge(MergeKind::kMin, mn, true, Rec(2, 10));
  ApplyMerge(MergeKind::kMin, mn, false, Rec(2, 5));
  ApplyMerge(MergeKind::kMin, mn, false, Rec(2, 30));
  EXPECT_EQ(mn.attrs[0], 5u);
}

TEST(Merge, ExistenceIsBoolean) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  ApplyMerge(MergeKind::kExistence, slot, true, Rec(1, 999));
  EXPECT_EQ(slot.attrs[0], 1u);
  ApplyMerge(MergeKind::kExistence, slot, false, Rec(1, 999));
  EXPECT_EQ(slot.attrs[0], 1u);
}

TEST(Merge, DistinctionOrsSignatures) {
  KeyValueTable table(64);
  bool created = false;
  KvSlot& slot = table.FindOrInsert(Key(1), created);
  FlowRecord r1 = Rec(1, 0);
  r1.attrs = {0x1, 0x2, 0x4, 0x8};
  r1.num_attrs = 4;
  FlowRecord r2 = Rec(1, 0);
  r2.attrs = {0x10, 0x20, 0x40, 0x80};
  r2.num_attrs = 4;
  ApplyMerge(MergeKind::kDistinction, slot, true, r1);
  ApplyMerge(MergeKind::kDistinction, slot, false, r2);
  EXPECT_EQ(slot.attrs[0], 0x11u);
  EXPECT_EQ(slot.attrs[3], 0x88u);
}

TEST(Merge, DistinctionAvoidsDoubleCounting) {
  // The same elements reported from two sub-windows must not inflate the
  // estimate — the property scalar merging cannot provide.
  SpreadSignature sw1{}, sw2{};
  for (std::uint64_t e = 0; e < 120; ++e) {
    LcSignatureInsert(sw1, Mix64(e));
    LcSignatureInsert(sw2, Mix64(e));  // identical elements
  }
  SpreadSignature merged = sw1;
  MergeSpreadSignature(merged, sw2);
  EXPECT_DOUBLE_EQ(LcSignatureEstimate(merged), LcSignatureEstimate(sw1));
}

// ----------------------------------------------------------- batch kernels

TEST(BatchKernels, SumVariantsAgree) {
  std::vector<std::uint64_t> a1(1000), a2(1000), v(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    a1[i] = a2[i] = i;
    v[i] = i * 3;
  }
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1[10], 10u + 30u);
}

TEST(BatchKernels, MaxVariantsAgree) {
  std::vector<std::uint64_t> a1(1000), a2(1000), v(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    a1[i] = a2[i] = i % 7;
    v[i] = i % 5;
  }
  BatchMaxScalar(a1, v);
  BatchMaxSimd(a2, v);
  EXPECT_EQ(a1, a2);
}

TEST(BatchKernels, RemainderLanesAgree) {
  // Exercise every tail length around the 4-wide AVX2 stride, including
  // empty spans.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::uint64_t> a1(n), a2(n), v(n);
    for (std::size_t i = 0; i < n; ++i) {
      a1[i] = a2[i] = next();
      v[i] = next();
    }
    std::vector<std::uint64_t> m1 = a1, m2 = a2;
    BatchSumScalar(a1, v);
    BatchSumSimd(a2, v);
    EXPECT_EQ(a1, a2) << "sum, n=" << n;
    BatchMaxScalar(m1, v);
    BatchMaxSimd(m2, v);
    EXPECT_EQ(m1, m2) << "max, n=" << n;
  }
}

TEST(BatchKernels, MaxIsUnsignedAcrossSignBit) {
  // Values straddling 2^63 catch a signed-compare AVX2 max (the intrinsic
  // set has no unsigned 64-bit compare; the kernel must bias operands).
  std::vector<std::uint64_t> a1 = {0x8000000000000000ull, 1ull,
                                   0xFFFFFFFFFFFFFFFFull, 0ull,
                                   0x7FFFFFFFFFFFFFFFull};
  std::vector<std::uint64_t> v = {1ull, 0x8000000000000000ull, 0ull,
                                  0xFFFFFFFFFFFFFFFFull,
                                  0x8000000000000000ull};
  std::vector<std::uint64_t> a2 = a1;
  BatchMaxScalar(a1, v);
  BatchMaxSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a2[0], 0x8000000000000000ull);
  EXPECT_EQ(a2[1], 0x8000000000000000ull);
  EXPECT_EQ(a2[4], 0x8000000000000000ull);
}

TEST(BatchKernels, SumWrapsModulo64) {
  std::vector<std::uint64_t> a1 = {0xFFFFFFFFFFFFFFFFull, 5},
                             v = {2, 0xFFFFFFFFFFFFFFFBull};
  std::vector<std::uint64_t> a2 = a1;
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a2[0], 1u);
  EXPECT_EQ(a2[1], 0u);
}

TEST(BatchKernels, LargeRandomAgree) {
  std::uint64_t rng = 0xA5A5A5A55A5A5A5Aull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::size_t n = 4099;  // prime: misaligned tail
  std::vector<std::uint64_t> a1(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    a1[i] = next();
    v[i] = next();
  }
  std::vector<std::uint64_t> a2 = a1, m1 = a1, m2 = a1;
  BatchSumScalar(a1, v);
  BatchSumSimd(a2, v);
  EXPECT_EQ(a1, a2);
  BatchMaxScalar(m1, v);
  BatchMaxSimd(m2, v);
  EXPECT_EQ(m1, m2);
}

TEST(BatchKernels, SizeMismatchThrows) {
  std::vector<std::uint64_t> a(10), v(9);
  EXPECT_THROW(BatchSumScalar(a, v), std::invalid_argument);
  EXPECT_THROW(BatchSumSimd(a, v), std::invalid_argument);
  EXPECT_THROW(BatchMaxScalar(a, v), std::invalid_argument);
  EXPECT_THROW(BatchMaxSimd(a, v), std::invalid_argument);
}

}  // namespace
}  // namespace ow
