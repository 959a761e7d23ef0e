// Untrusted-snapshot hardening (the decode side of docs/snapshot_format.md).
//
// A checkpoint read back from disk may be truncated, bit-flipped or forged;
// the decoding contract is that every such stream fails with SnapshotError
// BEFORE it can OOM the process or mutate the object being restored. Pinned
// here: forged length prefixes bounded by the remaining stream,
// KeyValueTable::Load's strong exception guarantee (throw => table unchanged
// and still usable), dense<->sparse encoding equivalence across the
// occupancy range, the durable-file framing (every bit flip and truncation
// of a WriteFile checkpoint is caught, with the error naming the section and
// absolute file offsets), forged lane and table counts in Switch and
// ExactCountApp checkpoints, stray bytes in a dense stream's empty slots,
// forged FlowKey bytes in every decoder that reads keys (a forged length in
// every key array of a mid-collection program and controller checkpoint
// leaves the target unchanged), FlowkeyTracker::Load's all-or-nothing
// guarantee at every truncation of a two-region section, the CRC-32 kernel
// and combine against a bitwise reference, ShardedKeyValueTable::Load's
// all-or-nothing guarantee, and the delta-checkpoint encode/apply pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/snapshot.h"
#include "src/controller/key_value_table.h"
#include "src/controller/sharded_key_value_table.h"
#include "src/core/controller.h"
#include "src/core/data_plane.h"
#include "src/core/flowkey_tracker.h"
#include "src/core/network_runner.h"
#include "src/switchsim/pipeline.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

/// Bitwise CRC-32 (IEEE 802.3, reflected), the definition the table-driven
/// Crc32 must reproduce bit for bit, chained `seed` included.
std::uint32_t RefCrc32(const std::uint8_t* p, std::size_t n,
                       std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

FlowKey Key(std::uint32_t id) {
  return FlowKey(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = id});
}

/// Fill `table` with `n` live keys (deterministic contents), then tombstone
/// every fourth one so round-trips cover all three slot states.
void Fill(KeyValueTable& table, std::uint32_t n, bool with_tombstones) {
  bool created = false;
  for (std::uint32_t i = 1; i <= n; ++i) {
    KvSlot& s = table.FindOrInsert(Key(i), created);
    s.attrs[0] = 100 + i;
    s.attrs[1] = i * 7;
    s.num_attrs = 2;
    s.last_subwindow = i;
  }
  if (with_tombstones) {
    for (std::uint32_t i = 4; i <= n; i += 4) table.Erase(Key(i));
  }
}

std::vector<std::uint8_t> SaveBytes(const KeyValueTable& table,
                                    KvSnapshotMode mode) {
  SnapshotWriter w;
  table.Save(w, mode);
  return w.Take();
}

bool BackingEqual(const KeyValueTable& a, const KeyValueTable& b) {
  return a.capacity() == b.capacity() &&
         std::memcmp(const_cast<KeyValueTable&>(a).data(),
                     const_cast<KeyValueTable&>(b).data(),
                     a.backing_bytes()) == 0;
}

void LoadInto(KeyValueTable& table, const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  table.Load(r);
}

/// The stream offset of the first KV payload byte after the writer header
/// (magic+version = 8), section tag (4), mode byte (1) and capacity (8).
constexpr std::size_t kKvHeaderBytes = 8 + 4 + 1 + 8;
/// Offset of the encoding-mode byte itself.
constexpr std::size_t kKvModeByteOffset = 8 + 4;

// --- forged length prefixes -------------------------------------------------

TEST(SnapshotHardening, ForgedHugeCountFailsBeforeAllocation) {
  SnapshotWriter w;
  w.Size(std::size_t{1} << 60);  // a PodVec length prefix with no payload
  const std::vector<std::uint8_t> bytes = w.Take();

  SnapshotReader r(bytes);
  std::vector<std::uint64_t> v;
  try {
    r.PodVec(v);
    FAIL() << "forged 2^60-element count must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  // The count was rejected before the container was sized: no OOM, and the
  // caller's vector is untouched.
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 0u);
}

TEST(SnapshotHardening, TamperedLengthPrefixOfRealVectorIsCaught) {
  SnapshotWriter w;
  const std::vector<std::uint64_t> payload = {1, 2, 3, 4};
  w.PodVec(payload);
  std::vector<std::uint8_t> bytes = w.Take();
  // The length prefix sits right after the 8-byte header; forge it huge.
  const std::uint64_t huge = ~std::uint64_t{0} / 8;
  std::memcpy(bytes.data() + 8, &huge, 8);

  SnapshotReader r(bytes);
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r.PodVec(v), SnapshotError);
  EXPECT_TRUE(v.empty());
}

TEST(SnapshotHardening, CountValidatesAgainstRemainingBytes) {
  SnapshotWriter w;
  w.Size(3);
  w.U64(0);  // only 8 payload bytes follow the count
  const std::vector<std::uint8_t> bytes = w.Take();
  SnapshotReader r(bytes);
  EXPECT_THROW((void)r.Count(16), SnapshotError);

  // Exact fit passes: 1 element x 8 bytes against 8 remaining.
  SnapshotWriter w2;
  w2.Size(1);
  w2.U64(42);
  const std::vector<std::uint8_t> ok = w2.Take();
  SnapshotReader r2(ok);
  EXPECT_EQ(r2.Count(8), 1u);
  EXPECT_EQ(r2.U64(), 42u);
}

TEST(SnapshotHardening, TruncationErrorNamesSectionAndOffset) {
  SnapshotWriter w;
  w.Section(snap::kKvTable);
  w.U64(7);
  std::vector<std::uint8_t> bytes = w.Take();
  bytes.resize(bytes.size() - 4);  // cut into the u64

  SnapshotReader r(bytes);
  r.Section(snap::kKvTable);
  try {
    (void)r.U64();
    FAIL() << "reading past a truncation must throw";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("in section 0x1B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  }
}

/// Offset of the first u64 after the writer header (8) and one section tag
/// (4): the FIFO lane count of a Switch checkpoint, the first table count
/// of an ExactCountApp one.
constexpr std::size_t kFirstCountOffset = 8 + 4;

void Forge(std::vector<std::uint8_t>& bytes, std::size_t offset,
           std::uint64_t value) {
  std::memcpy(bytes.data() + offset, &value, 8);
}

TEST(SnapshotHardening, ForgedSwitchLaneCountIsRejected) {
  Switch sw(0);
  Packet p;
  p.ts = 5;
  sw.EnqueueFromWire(p, p.ts);
  SnapshotWriter w;
  sw.Save(w);
  const std::vector<std::uint8_t> good = w.Take();

  // 2^63 + 1 used to wrap the FIFO capacity doubling to 0 and spin; 2^40
  // used to reach resize and throw bad_alloc.
  for (const std::uint64_t forged :
       {(std::uint64_t{1} << 63) + 1, std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> bytes = good;
    Forge(bytes, kFirstCountOffset, forged);
    Switch dst(0);
    SnapshotReader r(bytes);
    EXPECT_THROW(dst.Load(r), SnapshotError) << "count " << forged;
  }
}

TEST(SnapshotHardening, ForgedSwitchPacketSourceIsRejected) {
  Switch sw(0);
  Packet p;
  p.ts = 5;
  sw.EnqueueFromWire(p, p.ts);
  SnapshotWriter w;
  sw.Save(w);
  std::vector<std::uint8_t> bytes = w.Take();
  // FIFO count (8), then the first event's time (8) and seq (8).
  const std::size_t source_offset = kFirstCountOffset + 8 + 8 + 8;
  ASSERT_EQ(bytes[source_offset], std::uint8_t(PacketSource::kWire));
  bytes[source_offset] = 7;

  Switch dst(0);
  SnapshotReader r(bytes);
  EXPECT_THROW(dst.Load(r), SnapshotError);
}

TEST(SnapshotHardening, ForgedExactCountAppCountIsRejected) {
  ExactCountApp app;
  SnapshotWriter w;
  app.SaveState(w);
  std::vector<std::uint8_t> bytes = w.Take();
  Forge(bytes, kFirstCountOffset, std::uint64_t{1} << 40);

  ExactCountApp dst;
  SnapshotReader r(bytes);
  EXPECT_THROW(dst.LoadState(r), SnapshotError);
}

TEST(SnapshotHardening, DenseStrayBytesInEmptySlotAreNormalizedOnLoad) {
  KeyValueTable src(64);
  Fill(src, 10, /*with_tombstones=*/true);
  std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kDense);
  // Scribble over every byte of one empty slot except its state byte (which
  // stays kEmpty): the stream is still a valid table.
  std::size_t empty = 0;
  while (src.data()[empty].state != KvSlot::State::kEmpty) ++empty;
  const std::size_t at = kKvHeaderBytes + empty * sizeof(KvSlot);
  for (std::size_t b = 0; b < sizeof(KvSlot); ++b) {
    if (b != offsetof(KvSlot, state)) bytes[at + b] = 0xA5;
  }

  KeyValueTable dst(64);
  ASSERT_NO_THROW(LoadInto(dst, bytes));
  EXPECT_TRUE(BackingEqual(dst, src)) << "empty slot kept the stray bytes";
  // Clear resets only occupied slots, so it relies on every empty slot
  // already being zero: afterwards the table is byte-identical to a fresh
  // one, in memory and in a dense checkpoint.
  dst.Clear();
  const KeyValueTable fresh(64);
  EXPECT_TRUE(BackingEqual(dst, fresh));
  EXPECT_EQ(SaveBytes(dst, KvSnapshotMode::kDense),
            SaveBytes(fresh, KvSnapshotMode::kDense));
}

// --- KeyValueTable::Load strong exception guarantee -------------------------

TEST(KvTableHardening, CapacityMismatchLeavesTableUntouchedAndUsable) {
  KeyValueTable src(64);
  Fill(src, 10, /*with_tombstones=*/false);
  const std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kAuto);

  KeyValueTable dst(128);
  Fill(dst, 5, /*with_tombstones=*/false);
  KeyValueTable before(128);
  Fill(before, 5, /*with_tombstones=*/false);

  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
  EXPECT_TRUE(BackingEqual(dst, before)) << "failed Load mutated the table";
  EXPECT_EQ(dst.size(), 5u);
  // The table must remain fully usable after the rejected restore.
  ASSERT_NE(dst.Find(Key(3)), nullptr);
  EXPECT_EQ(dst.Find(Key(3))->attrs[0], 103u);
  bool created = false;
  dst.FindOrInsert(Key(999), created);
  EXPECT_TRUE(created);
  EXPECT_EQ(dst.size(), 6u);
}

TEST(KvTableHardening, TruncatedStreamLeavesTableUntouchedAndUsable) {
  KeyValueTable src(64);
  Fill(src, 12, /*with_tombstones=*/true);
  std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kSparse);
  bytes.resize(bytes.size() - 40);  // cut into the trailing tallies/entries

  KeyValueTable dst(64);
  Fill(dst, 5, /*with_tombstones=*/false);
  KeyValueTable before(64);
  Fill(before, 5, /*with_tombstones=*/false);

  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
  EXPECT_TRUE(BackingEqual(dst, before)) << "failed Load mutated the table";
  bool created = false;
  dst.FindOrInsert(Key(31), created);
  EXPECT_TRUE(created);
}

TEST(KvTableHardening, TamperedTallyIsCaughtBeforeCommit) {
  KeyValueTable src(64);
  Fill(src, 9, /*with_tombstones=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kSparse);
  // Trailing fields are live(8) | used(8) | rejected(8); bump `live` so the
  // stream's tally disagrees with the slots it describes.
  bytes[bytes.size() - 24] ^= 0x01;

  KeyValueTable dst(64);
  try {
    LoadInto(dst, bytes);
    FAIL() << "tally mismatch must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("live slots"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dst.size(), 0u);  // untouched: still the fresh empty table
  bool created = false;
  dst.FindOrInsert(Key(1), created);
  EXPECT_TRUE(created);
}

TEST(KvTableHardening, InvalidSlotStateByteIsRejected) {
  KeyValueTable src(64);
  Fill(src, 4, /*with_tombstones=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kDense);
  // Overwrite slot 0's state byte with a value no enumerator names.
  bytes[kKvHeaderBytes + offsetof(KvSlot, state)] = 0x77;

  KeyValueTable dst(64);
  try {
    LoadInto(dst, bytes);
    FAIL() << "invalid state byte must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid slot state"),
              std::string::npos)
        << e.what();
  }
}

TEST(KvTableHardening, SparseIndexOutOfOrderOrBeyondCapacityRejected) {
  KeyValueTable src(64);
  Fill(src, 2, /*with_tombstones=*/false);
  std::vector<std::uint8_t> bytes = SaveBytes(src, KvSnapshotMode::kSparse);
  // First sparse entry starts right after the occupied count: forge its
  // slot index beyond the capacity.
  const std::uint64_t beyond = 64;
  std::memcpy(bytes.data() + kKvHeaderBytes + 8, &beyond, 8);

  KeyValueTable dst(64);
  EXPECT_THROW(LoadInto(dst, bytes), SnapshotError);
}

std::vector<std::uint8_t> SaveBytes(const ShardedKeyValueTable& table) {
  SnapshotWriter w;
  table.Save(w, KvSnapshotMode::kSparse);
  return w.Take();
}

TEST(KvTableHardening, ShardedLoadIsAllOrNothingAtEveryTruncation) {
  bool created = false;
  ShardedKeyValueTable src(1024, 4);
  for (std::uint32_t i = 1; i <= 165; ++i) {
    src.FindOrInsert(Key(i), created).attrs[0] = i;
  }
  const std::vector<std::uint8_t> bytes = SaveBytes(src);

  ShardedKeyValueTable dst(1024, 4);
  for (std::uint32_t i = 1; i <= 11; ++i) {
    dst.FindOrInsert(Key(1000 + i), created).attrs[0] = i;
  }
  const std::vector<std::uint8_t> before = SaveBytes(dst);
  // Every cut past the stream header, including those that leave the
  // first shards whole: no shard may commit unless all of them decode.
  for (std::size_t len = 8; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    SnapshotReader r(cut);
    EXPECT_THROW(dst.Load(r), SnapshotError) << "cut at " << len;
    ASSERT_EQ(SaveBytes(dst), before) << "cut at " << len << " mutated it";
  }
  EXPECT_EQ(dst.size(), 11u);

  SnapshotReader r(bytes);
  dst.Load(r);
  EXPECT_EQ(dst.size(), 165u);
  EXPECT_EQ(SaveBytes(dst), bytes);
}

// --- forged flow keys --------------------------------------------------------

/// A stored FlowKey is its 13 key bytes, then its length and kind bytes.
constexpr std::size_t kKeyLenAt = 13;
constexpr std::size_t kKeyKindAt = 14;

/// Each forgery breaks one FlowKey invariant: a length past the key array,
/// a kind no enumerator names, a nonzero byte past the length (the keys
/// forged here are shorter than 13 bytes).
struct KeyForgery {
  std::size_t at;
  std::uint8_t value;
};
constexpr KeyForgery kKeyForgeries[] = {
    {kKeyLenAt, 200}, {kKeyKindAt, 9}, {12, 0x5A}};

/// Apply `f` to the key stored at `key_at`; returns the forged stream.
std::vector<std::uint8_t> ForgeKey(std::vector<std::uint8_t> bytes,
                                   std::size_t key_at, KeyForgery f) {
  bytes.at(key_at + f.at) = f.value;
  return bytes;
}

void ExpectMalformedKey(const std::function<void()>& load,
                        const KeyForgery& f) {
  try {
    load();
    ADD_FAILURE() << "forged key byte " << f.at << " = " << unsigned(f.value)
                  << " loaded";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("malformed flow key"),
              std::string::npos)
        << e.what();
  }
}

TEST(FlowKeyDecode, StoredLayoutAndWellFormed) {
  const FlowKey key = Key(0x0A000001);
  ASSERT_EQ(sizeof(FlowKey), 15u);
  std::uint8_t raw[sizeof(FlowKey)];
  std::memcpy(raw, &key, sizeof raw);
  EXPECT_EQ(raw[kKeyLenAt], 4u);
  EXPECT_EQ(raw[kKeyKindAt], std::uint8_t(FlowKeyKind::kSrcIp));
  EXPECT_TRUE(key.WellFormed());
  EXPECT_TRUE(FlowKey().WellFormed());
  EXPECT_TRUE(FlowKey(FlowKeyKind::kFiveTuple, FiveTuple{.src_ip = 1,
                                                         .proto = 6})
                  .WellFormed());
  for (const KeyForgery& f : kKeyForgeries) {
    std::uint8_t bad[sizeof(FlowKey)];
    std::memcpy(bad, raw, sizeof bad);
    bad[f.at] = f.value;
    FlowKey forged;
    std::memcpy(static_cast<void*>(&forged), bad, sizeof bad);
    EXPECT_FALSE(forged.WellFormed()) << "byte " << f.at;
  }
}

TEST(FlowKeyDecode, ForgedKeyInExactCountAppIsRejected) {
  ExactCountApp src(FlowKeyKind::kSrcIp);
  Packet p;
  p.ft.src_ip = 0x0A000001;
  src.Update(p, 0);
  SnapshotWriter w;
  src.SaveState(w);
  const std::vector<std::uint8_t> good = w.Take();
  // Section tag (4), region 0's entry count (8), then its only key.
  const std::size_t key_at = kFirstCountOffset + 8;
  for (const KeyForgery& f : kKeyForgeries) {
    const std::vector<std::uint8_t> bytes = ForgeKey(good, key_at, f);
    ExactCountApp dst(FlowKeyKind::kSrcIp);
    ExpectMalformedKey(
        [&] {
          SnapshotReader r(bytes);
          dst.LoadState(r);
        },
        f);
  }
}

TEST(FlowKeyDecode, ForgedKeyInKeyValueTableIsRejectedWithoutCommit) {
  KeyValueTable src(64);
  Fill(src, 6, /*with_tombstones=*/true);
  std::size_t first = 0;
  while (src.data()[first].state == KvSlot::State::kEmpty) ++first;
  // Sparse: the occupied count (8) and the first entry's slot index (8)
  // precede its key. Dense: the first occupied slot's key.
  const std::pair<KvSnapshotMode, std::size_t> cases[] = {
      {KvSnapshotMode::kSparse, kKvHeaderBytes + 8 + 8},
      {KvSnapshotMode::kDense, kKvHeaderBytes + first * sizeof(KvSlot)}};
  for (const auto& [mode, key_at] : cases) {
    const std::vector<std::uint8_t> good = SaveBytes(src, mode);
    for (const KeyForgery& f : kKeyForgeries) {
      const std::vector<std::uint8_t> bytes = ForgeKey(good, key_at, f);
      KeyValueTable dst(64);
      Fill(dst, 3, /*with_tombstones=*/false);
      KeyValueTable before(64);
      Fill(before, 3, /*with_tombstones=*/false);
      ExpectMalformedKey([&] { LoadInto(dst, bytes); }, f);
      EXPECT_TRUE(BackingEqual(dst, before)) << "failed Load mutated it";
    }
  }
}

TEST(FlowKeyDecode, ForgedKeyInPacketIsRejected) {
  // Distinctive keys, located in the stream by their bytes.
  const FlowKey injected(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 0xC0A80A0B});
  const FlowKey afr(FlowKeyKind::kSrcIp, FiveTuple{.src_ip = 0xAC10FE01});
  Packet p;
  p.ts = 5;
  p.ow.present = true;
  p.ow.injected_key = injected;
  FlowRecord rec;
  rec.key = afr;
  p.ow.afrs.push_back(rec);
  SnapshotWriter w;
  SavePacket(w, p);
  const std::vector<std::uint8_t> good = w.Take();

  for (const FlowKey& key : {injected, afr}) {
    const auto it = std::search(good.begin(), good.end(),
                                reinterpret_cast<const std::uint8_t*>(&key),
                                reinterpret_cast<const std::uint8_t*>(&key) +
                                    sizeof(FlowKey));
    ASSERT_NE(it, good.end());
    const std::size_t key_at = std::size_t(it - good.begin());
    for (const KeyForgery& f : kKeyForgeries) {
      const std::vector<std::uint8_t> bytes = ForgeKey(good, key_at, f);
      ExpectMalformedKey(
          [&] {
            SnapshotReader r(bytes);
            Packet out;
            LoadPacket(r, out);
          },
          f);
    }
  }
  SnapshotReader r(good);
  Packet out;
  LoadPacket(r, out);
  EXPECT_EQ(out.ow.injected_key, injected);
  EXPECT_EQ(out.ow.afrs.at(0).key, afr);
}

// --- flow keys in tracker, program and controller checkpoints -------------

FlowkeyTrackerConfig SmallTrackerConfig() {
  FlowkeyTrackerConfig cfg;
  cfg.capacity = 4;
  cfg.bloom_bits = 256;
  cfg.bloom_hashes = 2;
  return cfg;
}

/// A tracker whose regions hold Key(id) for the listed ids, in order; ids
/// past the capacity spill.
FlowkeyTracker TrackerOf(std::initializer_list<std::uint32_t> region0,
                         std::initializer_list<std::uint32_t> region1) {
  FlowkeyTracker t(SmallTrackerConfig());
  for (const std::uint32_t id : region0) t.Track(0, Key(id));
  for (const std::uint32_t id : region1) t.Track(1, Key(id));
  return t;
}

template <typename T>
std::vector<std::uint8_t> SaveOf(const T& obj) {
  SnapshotWriter w;
  obj.Save(w);
  return w.Take();
}

template <typename T>
void LoadBytes(T& obj, const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  obj.Load(r);
}

/// Stream offset of the stored `key`; the keys searched for here occur once.
std::size_t OffsetOf(const std::vector<std::uint8_t>& bytes,
                     const FlowKey& key) {
  const auto* raw = reinterpret_cast<const std::uint8_t*>(&key);
  const auto it =
      std::search(bytes.begin(), bytes.end(), raw, raw + sizeof(FlowKey));
  EXPECT_NE(it, bytes.end()) << key.ToString();
  return std::size_t(it - bytes.begin());
}

/// `dst` after a failed Load is byte-identical to `before` and usable: it
/// loads `good` and then tracks exactly as a tracker restored from `good`.
void ExpectTrackerUnchangedAndUsable(FlowkeyTracker& dst,
                                     const std::vector<std::uint8_t>& before,
                                     const std::vector<std::uint8_t>& good) {
  ASSERT_EQ(SaveOf(dst), before);
  LoadBytes(dst, good);
  FlowkeyTracker clean(SmallTrackerConfig());
  LoadBytes(clean, good);
  for (const std::uint32_t id : {2u, 40u, 41u}) {
    EXPECT_EQ(dst.Track(0, Key(id)), clean.Track(0, Key(id)));
    EXPECT_EQ(dst.Track(1, Key(id)), clean.Track(1, Key(id)));
  }
  EXPECT_EQ(SaveOf(dst), SaveOf(clean));
}

TEST(TrackerHardening, EveryTruncationOfTwoRegionsLeavesTrackerUnchanged) {
  const FlowkeyTracker src = TrackerOf({1, 2, 3}, {11, 12, 13, 14, 15, 16});
  ASSERT_EQ(src.spilled(1), 2u);
  const std::vector<std::uint8_t> bytes = SaveOf(src);
  FlowkeyTracker dst = TrackerOf({21}, {22, 23});
  const std::vector<std::uint8_t> before = SaveOf(dst);
  // Every cut past the stream header, including those that leave region 0
  // whole: no region may commit unless both decode.
  for (std::size_t len = 8; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    SnapshotReader r(cut);
    EXPECT_THROW(dst.Load(r), SnapshotError) << "cut at " << len;
    ASSERT_EQ(SaveOf(dst), before) << "cut at " << len << " mutated it";
  }
  ExpectTrackerUnchangedAndUsable(dst, before, bytes);
}

TEST(TrackerHardening, ForgedKeyInEitherRegionIsRejectedWithoutCommit) {
  const std::vector<std::uint8_t> good =
      SaveOf(TrackerOf({1, 2, 3}, {11, 12, 13}));
  // The last key of each region: region 0 is whole by the time region 1's
  // key fails.
  for (const FlowKey& key : {Key(3), Key(13)}) {
    const std::size_t key_at = OffsetOf(good, key);
    for (const KeyForgery& f : kKeyForgeries) {
      const std::vector<std::uint8_t> bytes = ForgeKey(good, key_at, f);
      FlowkeyTracker dst = TrackerOf({21}, {22, 23});
      const std::vector<std::uint8_t> before = SaveOf(dst);
      ExpectMalformedKey([&] { LoadBytes(dst, bytes); }, f);
      ExpectTrackerUnchangedAndUsable(dst, before, good);
    }
  }
}

/// Switch 0 of a one-switch fabric in the middle of a collection: a
/// tracker too small for the trace spills keys to the controller, reports
/// batch four records, and sliding windows keep finalized sub-windows in
/// the controller's history. `earlier` is the same pair of checkpoints at
/// the previous collection, the state the restore targets start from.
struct MidCollection {
  NetworkRunConfig cfg;
  std::vector<FlowKey> flow_keys;  ///< every key the trace measures
  std::vector<std::uint8_t> program, controller;
  std::vector<std::uint8_t> earlier_program, earlier_controller;
};

MidCollection DriveIntoCollection() {
  TraceConfig tc;
  tc.seed = 3;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 12'000;
  tc.num_flows = 400;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateBackground();
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 200 * kMilli;
  spec.slide = 50 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  MidCollection m;
  m.cfg.base = RunConfig::Make(spec);
  m.cfg.base.controller.kv_capacity = 1 << 12;
  m.cfg.base.data_plane.tracker.capacity = 64;
  m.cfg.base.data_plane.afr_batch = 4;
  m.cfg.topology.kind = TopologyKind::kLine;
  m.cfg.topology.line_switches = 1;
  m.cfg.link.latency = 20 * kMicro;
  for (const Packet& p : trace.packets) {
    m.flow_keys.emplace_back(FlowKeyKind::kFiveTuple, p.ft);
  }
  FabricSession session(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      m.cfg);
  // Step until the collections of sub-windows 1 and 2 are each under way.
  for (Nanos t = 0; m.program.empty(); t += 20 * kMicro) {
    EXPECT_LT(t, trace.Duration()) << "no collection in progress";
    if (t >= trace.Duration()) break;
    session.DriveUntil(t);
    const OmniWindowProgram& prog = session.program(0);
    const SubWindowNum sub = prog.current_subwindow();
    if (sub < 2 || prog.QueryRecoverability(sub - 1) !=
                       OmniWindowProgram::CollectRecoverability::kActive) {
      continue;
    }
    // The previous collection's records sit in the retransmission cache.
    EXPECT_EQ(prog.QueryRecoverability(sub - 2),
              OmniWindowProgram::CollectRecoverability::kCached);
    std::vector<std::uint8_t> program = SaveOf(prog);
    SnapshotWriter w;
    session.controller(0).Save(w);
    if (sub == 2) {
      m.earlier_program = std::move(program);
      m.earlier_controller = w.Take();
    } else if (!m.earlier_program.empty()) {
      m.program = std::move(program);
      m.controller = w.Take();
    }
  }
  EXPECT_GT(session.controller(0).stats().spilled_keys_stored, 0u);
  return m;
}

/// Offsets in `bytes` of every stored key from `keys`.
std::vector<std::size_t> KeyOffsets(const std::vector<std::uint8_t>& bytes,
                                    const std::vector<FlowKey>& keys) {
  std::set<std::string> wanted;
  for (const FlowKey& k : keys) {
    wanted.emplace(reinterpret_cast<const char*>(&k), sizeof(FlowKey));
  }
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i + sizeof(FlowKey) <= bytes.size(); ++i) {
    if (wanted.contains(std::string(
            reinterpret_cast<const char*>(bytes.data() + i), sizeof(FlowKey)))) {
      at.push_back(i);
    }
  }
  return at;
}

/// Forge the length byte of every stored flow key in `good` to 200. Each
/// Load must reject it as a malformed key and leave `dst` byte-identical;
/// afterwards `dst` still loads `good`, exactly as `clean` (a fresh target)
/// does.
template <typename T>
void ExpectEveryForgedKeyRejected(T& dst, T& clean,
                                  const std::vector<std::uint8_t>& good,
                                  const std::vector<FlowKey>& keys) {
  const std::vector<std::uint8_t> before = SaveOf(dst);
  const std::vector<std::size_t> offsets = KeyOffsets(good, keys);
  EXPECT_FALSE(offsets.empty());
  for (const std::size_t at : offsets) {
    ExpectMalformedKey(
        [&] { LoadBytes(dst, ForgeKey(good, at, {kKeyLenAt, 200})); },
        {kKeyLenAt, 200});
    ASSERT_EQ(SaveOf(dst), before) << "forged key at offset " << at;
  }
  LoadBytes(dst, good);
  LoadBytes(clean, good);
  EXPECT_EQ(SaveOf(dst), SaveOf(clean));
}

// Every FlowKey and FlowRecord array a program checkpoint carries (tracker
// regions, the keys under collection, the retransmission cache, the report
// batch, the app's counts, pending packets) is checked on restore, and the
// restore commits nothing until the whole section has decoded.
TEST(FlowKeyDecode, ForgedKeyInProgramIsRejectedWithoutCommit) {
  const MidCollection m = DriveIntoCollection();
  ASSERT_FALSE(m.program.empty());
  OmniWindowConfig dp = m.cfg.base.data_plane;
  dp.first_hop = true;
  OmniWindowProgram dst(dp, std::make_shared<ExactCountApp>());
  LoadBytes(dst, m.earlier_program);
  OmniWindowProgram clean(dp, std::make_shared<ExactCountApp>());
  ExpectEveryForgedKeyRejected(dst, clean, m.program, m.flow_keys);
}

// ExactCountApp writes its maps in key order, so the bytes depend on the
// counts alone: not on insertion order, and not on whether the maps were
// built by traffic or by a restore.
TEST(ExactCountAppSnapshot, SaveLoadSaveReproducesBytes) {
  auto state_of = [](ExactCountApp& app) {
    SnapshotWriter w;
    app.SaveState(w);
    return w.Take();
  };
  ExactCountApp forward;
  ExactCountApp backward;
  for (std::uint32_t id = 1; id <= 600; ++id) {
    Packet p;
    p.ft.src_ip = id;
    p.ft.dst_port = std::uint16_t(id % 7);
    for (std::uint32_t n = 0; n <= id % 3; ++n) forward.Update(p, int(id % 2));
    p.ft.src_ip = 601 - id;
    p.ft.dst_port = std::uint16_t((601 - id) % 7);
    for (std::uint32_t n = 0; n <= (601 - id) % 3; ++n) {
      backward.Update(p, int((601 - id) % 2));
    }
  }
  const std::vector<std::uint8_t> saved = state_of(forward);
  EXPECT_EQ(state_of(backward), saved);
  ExactCountApp restored;
  SnapshotReader r(saved);
  restored.LoadState(r);
  EXPECT_EQ(state_of(restored), saved);
}

// The same through a whole program checkpoint mid-collection.
TEST(ExactCountAppSnapshot, ProgramSaveLoadSaveReproducesBytes) {
  const MidCollection m = DriveIntoCollection();
  ASSERT_FALSE(m.program.empty());
  OmniWindowConfig dp = m.cfg.base.data_plane;
  dp.first_hop = true;
  OmniWindowProgram dst(dp, std::make_shared<ExactCountApp>());
  LoadBytes(dst, m.program);
  EXPECT_EQ(SaveOf(dst), m.program);
}

// The same for a controller checkpoint: its table, finalized history,
// pending records and key sets, and spilled keys.
TEST(FlowKeyDecode, ForgedKeyInControllerIsRejectedWithoutCommit) {
  const MidCollection m = DriveIntoCollection();
  ASSERT_FALSE(m.controller.empty());
  OmniWindowController dst(m.cfg.base.controller, MergeKind::kFrequency);
  LoadBytes(dst, m.earlier_controller);
  OmniWindowController clean(m.cfg.base.controller, MergeKind::kFrequency);
  ExpectEveryForgedKeyRejected(dst, clean, m.controller, m.flow_keys);
}

// --- dense <-> sparse equivalence -------------------------------------------

TEST(KvTableHardening, DenseSparseRoundTripAcrossOccupancies) {
  // Capacity 64 => sparse threshold 32, insert ceiling 56 (7/8 load).
  const std::size_t threshold = KeyValueTable::SparseSaveThreshold(64);
  ASSERT_EQ(threshold, 32u);
  for (const std::uint32_t occupancy : {0u, 1u, 31u, 32u, 56u}) {
    SCOPED_TRACE("occupancy=" + std::to_string(occupancy));
    KeyValueTable src(64);
    Fill(src, occupancy, /*with_tombstones=*/occupancy >= 8);

    for (const KvSnapshotMode mode :
         {KvSnapshotMode::kDense, KvSnapshotMode::kSparse}) {
      const std::vector<std::uint8_t> bytes = SaveBytes(src, mode);
      KeyValueTable dst(64);
      LoadInto(dst, bytes);
      EXPECT_TRUE(BackingEqual(src, dst))
          << "slot array diverged after round-trip";
      EXPECT_EQ(src.size(), dst.size());
      EXPECT_EQ(src.load_factor(), dst.load_factor());
      EXPECT_EQ(src.rejected_inserts(), dst.rejected_inserts());
      // Both encodings must re-save to byte-identical streams.
      EXPECT_EQ(SaveBytes(dst, mode), bytes);
    }

    // kAuto picks sparse strictly below the threshold, dense at and above.
    const std::vector<std::uint8_t> bytes =
        SaveBytes(src, KvSnapshotMode::kAuto);
    EXPECT_EQ(bytes[kKvModeByteOffset], occupancy < threshold ? 1 : 0);
  }
}

TEST(KvTableHardening, SparseEncodingShrinksLowOccupancyCheckpoints) {
  KeyValueTable table(1 << 12);
  Fill(table, 64, /*with_tombstones=*/false);
  const std::size_t sparse = SaveBytes(table, KvSnapshotMode::kSparse).size();
  const std::size_t dense = SaveBytes(table, KvSnapshotMode::kDense).size();
  EXPECT_GE(dense / sparse, 10u)
      << "sparse=" << sparse << " dense=" << dense
      << ": the sparse encoding must shrink a 64/4096 table >= 10x";
}

// --- durable file framing ---------------------------------------------------

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void WriteRaw(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()), std::streamsize(b.size()));
  ASSERT_TRUE(out.good());
}

std::vector<std::uint8_t> ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> b(std::size_t(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(b.data()), std::streamsize(b.size()));
  return b;
}

/// A small two-section checkpoint; returns the payload and the stream
/// offset at which the second section starts.
SnapshotWriter TwoSectionWriter(std::size_t* second_section_offset) {
  SnapshotWriter w;
  KeyValueTable table(64);
  Fill(table, 10, /*with_tombstones=*/true);
  table.Save(w, KvSnapshotMode::kSparse);
  *second_section_offset = w.buffer().size();
  w.Section(snap::kController);
  for (std::uint64_t i = 0; i < 32; ++i) w.U64(i * 3);
  return w;
}

TEST(SnapshotFile, WriteReadRoundTrip) {
  TempFile tmp("snapshot_hardening_roundtrip.owsnap");
  std::size_t second = 0;
  SnapshotWriter w = TwoSectionWriter(&second);
  const std::vector<std::uint8_t> payload = w.buffer();
  w.WriteFile(tmp.path());

  const std::vector<std::uint8_t> back = ReadSnapshotFile(tmp.path());
  EXPECT_EQ(back, payload);

  // The payload restores: both sections parse to the saved contents.
  SnapshotReader r(back);
  KeyValueTable table(64);
  table.Load(r);
  EXPECT_EQ(table.size(), 8u);  // 10 inserts, 2 tombstoned (4 and 8)
  r.Section(snap::kController);
  for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(r.U64(), i * 3);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotFile, EveryBitFlipIsCaught) {
  TempFile tmp("snapshot_hardening_bitflip.owsnap");
  std::size_t second = 0;
  TwoSectionWriter(&second).WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());
  ASSERT_GT(good.size(), 0u);

  // Flip one bit at EVERY byte of the file — payload, per-section index and
  // footer alike — and each corrupted file must fail to load. This is the
  // no-silent-misload guarantee the durable framing exists for.
  for (std::size_t off = 0; off < good.size(); ++off) {
    std::vector<std::uint8_t> bad = good;
    bad[off] ^= 0x40;
    WriteRaw(tmp.path(), bad);
    EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError)
        << "bit flip at file offset " << off << " loaded successfully";
  }
}

TEST(SnapshotFile, EveryTruncationIsCaught) {
  TempFile tmp("snapshot_hardening_trunc.owsnap");
  std::size_t second = 0;
  TwoSectionWriter(&second).WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());

  for (std::size_t len = 0; len < good.size(); len += 13) {
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + len);
    WriteRaw(tmp.path(), bad);
    EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError)
        << "truncation to " << len << " bytes loaded successfully";
  }
  // And the off-by-one cut right before the footer's last byte.
  std::vector<std::uint8_t> bad(good.begin(), good.end() - 1);
  WriteRaw(tmp.path(), bad);
  EXPECT_THROW((void)ReadSnapshotFile(tmp.path()), SnapshotError);
}

TEST(SnapshotFile, CorruptionIsLocalizedToSectionAndOffsets) {
  TempFile tmp("snapshot_hardening_localize.owsnap");
  std::size_t second = 0;
  SnapshotWriter w = TwoSectionWriter(&second);
  const std::size_t payload_len = w.buffer().size();
  w.WriteFile(tmp.path());
  const std::vector<std::uint8_t> good = ReadRaw(tmp.path());

  // A bad byte inside the SECOND section must be blamed on it by tag, with
  // the absolute file offset range.
  {
    std::vector<std::uint8_t> bad = good;
    bad[second + 6] ^= 0x01;
    WriteRaw(tmp.path(), bad);
    try {
      (void)ReadSnapshotFile(tmp.path());
      FAIL() << "corrupt section must throw";
    } catch (const SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("section 0x1C"), std::string::npos) << msg;
      EXPECT_NE(msg.find("[" + std::to_string(second) + ", " +
                         std::to_string(payload_len) + ")"),
                std::string::npos)
          << msg;
    }
  }
  // A bad byte in the index region with an INTACT payload is still a
  // corrupt checkpoint — and says so rather than blaming the payload.
  {
    std::vector<std::uint8_t> bad = good;
    bad[payload_len + 2] ^= 0x01;
    WriteRaw(tmp.path(), bad);
    try {
      (void)ReadSnapshotFile(tmp.path());
      FAIL() << "corrupt section index must throw";
    } catch (const SnapshotError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("section index corrupt"), std::string::npos) << msg;
      EXPECT_NE(msg.find("payload CRC intact"), std::string::npos) << msg;
    }
  }
}

TEST(SnapshotFile, MissingFileThrows) {
  EXPECT_THROW((void)ReadSnapshotFile("snapshot_hardening_nonexistent.owsnap"),
               SnapshotError);
}

TEST(SnapshotFile, GoldenFileBytesAreStable) {
  // Size and CRC of this fixed checkpoint as written before WriteFile
  // combined its footer CRC from the section CRCs: the payload, index and
  // footer bytes must not move.
  TempFile tmp("snapshot_hardening_golden.owsnap");
  std::size_t second = 0;
  TwoSectionWriter(&second).WriteFile(tmp.path());
  const std::vector<std::uint8_t> file = ReadRaw(tmp.path());
  EXPECT_EQ(file.size(), 1097u);
  EXPECT_EQ(RefCrc32(file.data(), file.size()), 0x6CFAD2EAu);
}

// --- CRC-32 ------------------------------------------------------------------

/// Deterministic pseudo-random bytes.
std::vector<std::uint8_t> Noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::uint8_t& b : v) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    b = std::uint8_t(seed >> 56);
  }
  return v;
}

TEST(SnapshotCrc, KnownAnswer) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(RefCrc32(reinterpret_cast<const std::uint8_t*>("123456789"), 9),
            0xCBF43926u);
}

TEST(SnapshotCrc, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = Noise(300 + 8, 11);
  for (std::size_t align = 0; align < 8; ++align) {
    const std::uint8_t* p = buf.data() + align;
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(p, len), RefCrc32(p, len))
          << "len " << len << " align " << align;
      // Chained: a seed carried in from an earlier buffer, and one buffer
      // CRC'd in two calls.
      const std::uint32_t seed = RefCrc32(buf.data(), align + 3);
      ASSERT_EQ(Crc32(p, len, seed), RefCrc32(p, len, seed))
          << "len " << len << " align " << align;
      const std::size_t k = len / 3;
      ASSERT_EQ(Crc32(p + k, len - k, Crc32(p, k)), RefCrc32(p, len))
          << "len " << len << " split " << k << " align " << align;
    }
  }
}

TEST(SnapshotCrc, CombineEqualsOneDirectPass) {
  const std::vector<std::uint8_t> buf = Noise(4099, 5);
  const std::uint8_t* p = buf.data();
  const std::size_t n = buf.size();
  const std::uint32_t whole = Crc32(p, n);
  // Empty first part, empty second part, and splits across the slice-by-8
  // boundaries.
  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{2048}, n - 1, n}) {
    EXPECT_EQ(Crc32Combine(Crc32(p, split), Crc32(p + split, n - split),
                           n - split),
              whole)
        << "split " << split;
  }
  // Many parts, folded left to right, as WriteFile folds sections.
  std::uint32_t folded = Crc32(p, 8);
  for (std::size_t at = 8; at < n; at += 37) {
    const std::size_t len = std::min<std::size_t>(37, n - at);
    folded = Crc32Combine(folded, Crc32(p + at, len), len);
  }
  EXPECT_EQ(folded, whole);
  // A long zero run: the combine's length operator covers high bits too.
  const std::vector<std::uint8_t> zeros(1 << 20, 0);
  EXPECT_EQ(Crc32Combine(Crc32(p, 100), Crc32(zeros.data(), zeros.size()),
                         zeros.size()),
            Crc32(zeros.data(), zeros.size(), Crc32(p, 100)));
}

// --- delta checkpoints ------------------------------------------------------

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::uint8_t(seed + i * 31 + (i >> 5));
  }
  return v;
}

TEST(SnapshotDelta, RoundTripAcrossShapes) {
  const std::vector<std::uint8_t> base = Pattern(4096, 7);

  std::vector<std::vector<std::uint8_t>> nexts;
  nexts.push_back(base);  // identical
  {
    std::vector<std::uint8_t> v = base;  // scattered small edits
    v[10] ^= 0xFF;
    v[1000] = 0;
    v[1001] = 1;
    v[4000] ^= 0x80;
    nexts.push_back(std::move(v));
  }
  {
    std::vector<std::uint8_t> v = base;  // grown tail
    v.insert(v.end(), 512, 0xAB);
    nexts.push_back(std::move(v));
  }
  nexts.push_back({base.begin(), base.begin() + 100});  // shrunk
  nexts.push_back({});                                  // emptied
  nexts.push_back(Pattern(4096, 99));                   // fully rewritten

  for (std::size_t i = 0; i < nexts.size(); ++i) {
    SCOPED_TRACE("case=" + std::to_string(i));
    const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, nexts[i]);
    EXPECT_EQ(ApplySnapshotDelta(base, delta), nexts[i]);
  }

  // From an empty base (the standby's first keyframe-less state).
  const std::vector<std::uint8_t> from_empty = EncodeSnapshotDelta({}, base);
  EXPECT_EQ(ApplySnapshotDelta({}, from_empty), base);

  // Localized edits must ship far fewer bytes than the full snapshot.
  const std::vector<std::uint8_t> small = EncodeSnapshotDelta(base, nexts[1]);
  EXPECT_LT(small.size(), base.size() / 4);
}

TEST(SnapshotDelta, WrongBaseThrows) {
  const std::vector<std::uint8_t> base = Pattern(1024, 1);
  std::vector<std::uint8_t> next = base;
  next[77] ^= 0x0F;
  const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, next);

  std::vector<std::uint8_t> other = base;
  other[500] ^= 0x01;
  try {
    (void)ApplySnapshotDelta(other, delta);
    FAIL() << "applying a delta to the wrong base must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("wrong base"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotDelta, EveryBitFlipAndTruncationIsCaught) {
  const std::vector<std::uint8_t> base = Pattern(512, 3);
  std::vector<std::uint8_t> next = base;
  next[5] ^= 0xFF;
  next[200] = 0;
  next[510] ^= 0x01;
  next.insert(next.end(), 64, 0x5C);
  const std::vector<std::uint8_t> delta = EncodeSnapshotDelta(base, next);
  ASSERT_EQ(ApplySnapshotDelta(base, delta), next);

  for (std::size_t off = 0; off < delta.size(); ++off) {
    std::vector<std::uint8_t> bad = delta;
    bad[off] ^= 0x20;
    EXPECT_THROW((void)ApplySnapshotDelta(base, bad), SnapshotError)
        << "delta bit flip at offset " << off << " applied successfully";
  }
  for (std::size_t len = 0; len < delta.size(); ++len) {
    const std::vector<std::uint8_t> bad(delta.begin(), delta.begin() + len);
    EXPECT_THROW((void)ApplySnapshotDelta(base, bad), SnapshotError)
        << "delta truncated to " << len << " bytes applied successfully";
  }
}

}  // namespace
}  // namespace ow
