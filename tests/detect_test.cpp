// src/detect: streaming anomaly detection over sliding windows.
//
// Units: ScoreModel (floor, cold seed, lagged absorption, freeze),
// HysteresisFsm (dwell, hysteresis band, two-stage recovery), EntityDetector
// (cold-window seeding, top-K bound, idle eviction, sorted entity-key totals
// contract, OnWindow against the sort-everything reference over randomized
// windows), detector checkpoints (round trip; forged counts, bad state
// bytes, non-entity keys and every truncation leave the service unchanged)
// and alert/ground-truth matching.
// End to end: a fabric run over injected anomalies must detect them
// streaming with bounded memory, the alert stream must be bit-identical
// across merge_threads and parallel engine thread counts, and a leaf-spine
// evaluation run must reproduce a pinned alert digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/common/snapshot.h"
#include "src/controller/sharded_key_value_table.h"
#include "src/core/network_runner.h"
#include "src/detect/detect.h"
#include "src/detect/score.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

using detect::Alert;
using detect::DetectionService;
using detect::DetectorConfig;
using detect::EntityDetector;
using detect::HealthState;
using detect::HysteresisConfig;
using detect::HysteresisFsm;
using detect::ScoreModel;
using detect::ScoreModelConfig;

FlowKey Src(std::uint32_t ip) {
  return FlowKey(FlowKeyKind::kSrcIp, {.src_ip = ip});
}
FlowKey Dst(std::uint32_t ip) {
  return FlowKey(FlowKeyKind::kDstIp, {.dst_ip = ip});
}

// --- ScoreModel ------------------------------------------------------------

TEST(ScoreModel, FloorBoundsScoresOfSmallEntities) {
  ScoreModelConfig cfg;
  cfg.min_baseline = 20.0;
  ScoreModel m;  // baseline 0: the floor takes over
  EXPECT_DOUBLE_EQ(m.Score(10, cfg), 0.5);
  EXPECT_DOUBLE_EQ(m.Score(60, cfg), 3.0);
  m.Seed(200);
  EXPECT_DOUBLE_EQ(m.Score(200, cfg), 1.0);
  EXPECT_DOUBLE_EQ(m.Score(600, cfg), 3.0);
}

TEST(ScoreModel, AbsorptionIsLaggedByConfiguredWindows) {
  ScoreModelConfig cfg;
  cfg.alpha = 0.5;
  cfg.baseline_lag = 2;
  ScoreModel m;
  m.Seed(100);
  // Values 1000.. pushed now must not move the baseline for `lag` windows.
  m.Absorb(1000, /*freeze=*/false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  m.Absorb(1000, false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  // Third absorb pops the first 1000: baseline = 0.5*1000 + 0.5*100.
  m.Absorb(1000, false, cfg);
  EXPECT_DOUBLE_EQ(m.baseline(), 550);
}

TEST(ScoreModel, FreezeDiscardsSuspectValues) {
  ScoreModelConfig cfg;
  cfg.alpha = 0.5;
  cfg.baseline_lag = 1;
  ScoreModel m;
  m.Seed(100);
  m.Absorb(1000, false, cfg);   // queue 1000
  m.Absorb(1000, true, cfg);    // frozen: the queued 1000 is dropped
  EXPECT_DOUBLE_EQ(m.baseline(), 100);
  m.Absorb(80, false, cfg);     // unfrozen: absorbs the queued 1000? no —
  // the 1000 pushed while frozen was already popped and discarded; this
  // absorbs the second queued value in order.
  EXPECT_DOUBLE_EQ(m.baseline(), 550);
}

// --- HysteresisFsm ---------------------------------------------------------

HysteresisConfig FsmCfg() {
  HysteresisConfig cfg;
  cfg.enter_score = 3.0;
  cfg.down_score = 10.0;
  cfg.exit_score = 1.5;
  cfg.enter_dwell = 2;
  cfg.exit_dwell = 3;
  return cfg;
}

TEST(HysteresisFsm, EnterDwellSuppressesOneWindowSpikes) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  // Alternating hot/cold never satisfies a 2-window dwell.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(fsm.Step(5.0, cfg));
    EXPECT_FALSE(fsm.Step(1.0, cfg));
  }
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
  // Two consecutive hot windows transition.
  EXPECT_FALSE(fsm.Step(5.0, cfg));
  EXPECT_TRUE(fsm.Step(5.0, cfg));
  EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  EXPECT_EQ(fsm.prev_state(), HealthState::kHealthy);
}

TEST(HysteresisFsm, HysteresisBandHoldsStateWithoutFlapping) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  fsm.Step(5.0, cfg);
  fsm.Step(5.0, cfg);
  ASSERT_EQ(fsm.state(), HealthState::kDegraded);
  // Scores inside (exit, down) — including below enter — hold degraded.
  for (double s : {2.0, 9.0, 1.6, 2.9, 5.0}) {
    EXPECT_FALSE(fsm.Step(s, cfg)) << s;
    EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  }
  // Two cool windows are not enough (exit_dwell = 3), and the band resets
  // the cool streak.
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(2.0, cfg));  // band: streak reset
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_FALSE(fsm.Step(1.0, cfg));
  EXPECT_TRUE(fsm.Step(1.0, cfg));  // third consecutive completes the dwell
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
}

TEST(HysteresisFsm, EscalatesToDownAndRecoversOneLevelAtATime) {
  const HysteresisConfig cfg = FsmCfg();
  HysteresisFsm fsm;
  fsm.Step(20.0, cfg);
  EXPECT_TRUE(fsm.Step(20.0, cfg));  // healthy -> degraded
  fsm.Step(20.0, cfg);
  EXPECT_TRUE(fsm.Step(20.0, cfg));  // degraded -> down
  EXPECT_EQ(fsm.state(), HealthState::kDown);
  fsm.Step(0.0, cfg);
  fsm.Step(0.0, cfg);
  EXPECT_TRUE(fsm.Step(0.0, cfg));  // down -> degraded
  EXPECT_EQ(fsm.state(), HealthState::kDegraded);
  fsm.Step(0.0, cfg);
  fsm.Step(0.0, cfg);
  EXPECT_TRUE(fsm.Step(0.0, cfg));  // degraded -> healthy
  EXPECT_EQ(fsm.state(), HealthState::kHealthy);
}

// --- EntityDetector over synthetic totals ---------------------------------

DetectorConfig SmallCfg() {
  DetectorConfig cfg;
  cfg.subwindow_size = 100 * kMilli;
  cfg.score.min_baseline = 20.0;
  cfg.score.baseline_lag = 3;
  cfg.fsm = FsmCfg();
  return cfg;
}

/// A window's totals as the tests write them; Feed flattens the map into
/// the sorted array OnTotals takes.
using Totals = std::map<FlowKey, std::uint64_t>;

void Feed(EntityDetector& d, const Totals& totals, SubWindowNum window_index) {
  std::vector<detect::EntityTotal> flat;
  for (const auto& [entity, value] : totals) flat.push_back({entity, value});
  const SubWindowSpan span{window_index, SubWindowNum(window_index + 4)};
  d.OnTotals(flat, span, Nanos(window_index + 5) * 100 * kMilli, false);
}

TEST(EntityDetector, ColdWindowSeedsWithoutAlerting) {
  EntityDetector d(SmallCfg(), 0);
  // A huge steady entity present from the start must never alert.
  const Totals steady{{Src(1), 5000}, {Dst(2), 900}};
  for (SubWindowNum w = 0; w < 20; ++w) Feed(d, steady, w);
  EXPECT_TRUE(d.alerts().empty());
  EXPECT_EQ(d.tracked(), 2u);
}

TEST(EntityDetector, DetectsSpikeAboveSeededBaselineAfterDwell) {
  EntityDetector d(SmallCfg(), 7);
  Totals totals{{Src(1), 100}, {Dst(2), 50}};
  Feed(d, totals, 0);  // cold: seeds 100 / 50
  Feed(d, totals, 1);
  Feed(d, totals, 2);
  totals[Src(1)] = 520;  // score 5.2 vs seeded baseline
  Feed(d, totals, 3);
  EXPECT_TRUE(d.alerts().empty());  // dwell = 2: not yet
  Feed(d, totals, 4);
  ASSERT_EQ(d.alerts().size(), 1u);
  const Alert& a = d.alerts()[0];
  EXPECT_EQ(a.switch_id, 7);
  EXPECT_EQ(a.entity, Src(1));
  EXPECT_EQ(a.from, HealthState::kHealthy);
  EXPECT_EQ(a.to, HealthState::kDegraded);
  EXPECT_DOUBLE_EQ(a.score, 5.2);
  EXPECT_EQ(a.value, 520u);
  EXPECT_EQ(a.window_start, Nanos(4) * 100 * kMilli);
  EXPECT_EQ(a.window_end, Nanos(9) * 100 * kMilli);
  EXPECT_TRUE(a.actionable());

  // Sustained attack: frozen baseline, no further transitions below the
  // down threshold, hence no alert churn.
  for (SubWindowNum w = 5; w < 12; ++w) Feed(d, totals, w);
  EXPECT_EQ(d.alerts().size(), 1u);

  // Attack ends: exit dwell (3 windows at/below exit) recovers, emitting an
  // informational (non-actionable) alert.
  totals[Src(1)] = 100;
  for (SubWindowNum w = 12; w < 16; ++w) Feed(d, totals, w);
  ASSERT_EQ(d.alerts().size(), 2u);
  EXPECT_EQ(d.alerts()[1].to, HealthState::kHealthy);
  EXPECT_FALSE(d.alerts()[1].actionable());
}

TEST(EntityDetector, FreshEntityAboveFloorTimesEnterAlertsQuickly) {
  EntityDetector d(SmallCfg(), 0);
  Totals totals{{Src(1), 100}};
  Feed(d, totals, 0);  // cold
  totals[Dst(9)] = 90;  // fresh entity, score 90/20 = 4.5
  Feed(d, totals, 1);
  Feed(d, totals, 2);
  ASSERT_EQ(d.alerts().size(), 1u);
  EXPECT_EQ(d.alerts()[0].entity, Dst(9));
}

TEST(EntityDetector, TopKBoundHoldsAndKeepsTheLargest) {
  DetectorConfig cfg = SmallCfg();
  cfg.max_entities = 4;
  EntityDetector d(cfg, 0);
  Totals totals;
  for (std::uint32_t i = 1; i <= 6; ++i) totals[Src(i)] = 100 * i;
  Feed(d, totals, 0);
  EXPECT_EQ(d.tracked(), 4u);
  EXPECT_EQ(d.stats().evictions, 2u);
  EXPECT_EQ(d.stats().tracked_peak, 4u);
  // The four largest survived the admission fight.
  for (SubWindowNum w = 1; w < 3; ++w) Feed(d, totals, w);
  EXPECT_TRUE(d.alerts().empty());  // all seeded or below-floor, no alerts

  // A below-everyone newcomer is rejected, not admitted.
  totals[Src(7)] = 25;
  Feed(d, totals, 3);
  EXPECT_EQ(d.tracked(), 4u);
  EXPECT_GT(d.stats().admissions_rejected, 0u);
}

// Regression: at the capacity cap, a newcomer admitted mid-window evicts the
// smallest-baseline quiet entity — which can be the very entity the
// union-merge pass is currently iterating. The eviction must not invalidate
// the merge (this used to erase the live cursor: UB, caught under ASan).
TEST(EntityDetector, CapacityEvictionOfMergeCursorEntityIsSafe) {
  DetectorConfig cfg = SmallCfg();
  cfg.max_entities = 2;
  EntityDetector d(cfg, 0);
  // Cold window seeds Src(5) (baseline 30, the eviction candidate) and
  // Src(6) (baseline 100) — both quiet.
  Feed(d, {{Src(5), 30}, {Src(6), 100}}, 0);
  ASSERT_EQ(d.tracked(), 2u);
  // Src(1) sorts before both tracked keys, so its admission happens while
  // the merge cursor sits on Src(5) — the smallest-baseline victim.
  Feed(d, {{Src(1), 500}, {Src(5), 30}, {Src(6), 100}}, 1);
  EXPECT_EQ(d.tracked(), 2u);
  EXPECT_EQ(d.stats().evictions, 1u);
  // Src(1) really was admitted: its 25x-floor score escalates after dwell.
  Feed(d, {{Src(1), 500}, {Src(6), 100}}, 2);
  ASSERT_FALSE(d.alerts().empty());
  EXPECT_EQ(d.alerts()[0].entity, Src(1));
  EXPECT_EQ(d.alerts()[0].to, HealthState::kDegraded);
}

TEST(EntityDetector, OnTotalsRejectsUnsortedOrDuplicateKeys) {
  EntityDetector d(SmallCfg(), 0);
  const SubWindowSpan span{0, 4};
  const std::vector<detect::EntityTotal> unsorted{{Src(2), 100},
                                                  {Src(1), 100}};
  EXPECT_THROW(d.OnTotals(unsorted, span, 0, false), std::invalid_argument);
  const std::vector<detect::EntityTotal> duplicate{{Src(1), 100},
                                                   {Src(1), 100}};
  EXPECT_THROW(d.OnTotals(duplicate, span, 0, false), std::invalid_argument);
  // Rejected before any state moved: the next window is still the cold one.
  EXPECT_EQ(d.stats().windows, 0u);
  Feed(d, {{Src(1), 100}}, 0);
  EXPECT_EQ(d.tracked(), 1u);
  EXPECT_TRUE(d.alerts().empty());
}

TEST(EntityDetector, IdleQuietEntitiesAreEvicted) {
  DetectorConfig cfg = SmallCfg();
  cfg.idle_evict_windows = 3;
  EntityDetector d(cfg, 0);
  Totals totals{{Src(1), 100}, {Src(2), 100}};
  Feed(d, totals, 0);
  EXPECT_EQ(d.tracked(), 2u);
  totals.erase(Src(2));
  for (SubWindowNum w = 1; w <= 3; ++w) Feed(d, totals, w);
  EXPECT_EQ(d.tracked(), 1u);
  EXPECT_GT(d.stats().evictions, 0u);
}

TEST(EntityDetector, OnTotalsRejectsNonEntityKeys) {
  EntityDetector d(SmallCfg(), 0);
  const SubWindowSpan span{0, 4};
  const FiveTuple t{.src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4,
                    .proto = 6};
  const std::uint8_t three_bytes[3] = {1, 0, 0};
  for (const FlowKey& bad :
       {FlowKey(FlowKeyKind::kFiveTuple, t), FlowKey(FlowKeyKind::kIpPair, t),
        FlowKey(FlowKeyKind::kSrcIpDstPort, t),
        FlowKey::FromRaw(FlowKeyKind::kSrcIp, three_bytes)}) {
    const std::vector<detect::EntityTotal> totals{{bad, 100}};
    EXPECT_THROW(d.OnTotals(totals, span, 0, false), std::invalid_argument)
        << bad.ToString();
  }
  // Rejected before any state moved: the next window is still the cold one.
  EXPECT_EQ(d.stats().windows, 0u);
  Feed(d, {{Src(1), 100}}, 0);
  EXPECT_EQ(d.tracked(), 1u);
}

// --- OnWindow against the sort-everything reference ------------------------

/// The aggregation OnWindow used to run, kept as the reference it must
/// match: project every live slot onto (entity, value) pairs, sort all of
/// them by key, coalesce each run of equal keys, and hand every total to
/// OnTotals.
void ReferenceOnWindow(EntityDetector& d, const DetectorConfig& cfg,
                       const WindowResult& w) {
  std::vector<detect::EntityTotal> totals;
  const auto add = [&](const FlowKey& entity, std::uint64_t v) {
    totals.push_back({entity, v});
  };
  w.table->ForEach([&](const KvSlot& slot) {
    const std::uint64_t v = slot.attrs[0];
    if (v == 0) return;
    switch (slot.key.kind()) {
      case FlowKeyKind::kFiveTuple:
      case FlowKeyKind::kIpPair:
        if (cfg.track_src) add(Src(slot.key.src_ip()), v);
        if (cfg.track_dst) add(Dst(slot.key.dst_ip()), v);
        break;
      case FlowKeyKind::kSrcIp:
        if (cfg.track_src) add(slot.key, v);
        break;
      case FlowKeyKind::kDstIp:
        if (cfg.track_dst) add(slot.key, v);
        break;
      case FlowKeyKind::kSrcIpDstPort:
        if (cfg.track_src) add(Src(slot.key.src_ip()), v);
        break;
    }
  });
  std::sort(totals.begin(), totals.end(),
            [](const detect::EntityTotal& a, const detect::EntityTotal& b) {
              return a.entity < b.entity;
            });
  std::size_t n = 0;
  for (const detect::EntityTotal& t : totals) {
    if (n > 0 && totals[n - 1].entity == t.entity) {
      totals[n - 1].value += t.value;
    } else {
      totals[n++] = t;
    }
  }
  totals.resize(n);
  d.OnTotals(totals, w.span, w.completed_at, w.partial);
}

std::vector<std::uint8_t> DetectorBytes(const EntityDetector& d) {
  SnapshotWriter w;
  d.Save(w);
  return w.Take();
}

bool StatsEqual(const EntityDetector::Stats& a, const EntityDetector::Stats& b) {
  return a.windows == b.windows && a.partial_windows == b.partial_windows &&
         a.transitions_degraded == b.transitions_degraded &&
         a.transitions_down == b.transitions_down &&
         a.recoveries == b.recoveries && a.evictions == b.evictions &&
         a.admissions_rejected == b.admissions_rejected &&
         a.tracked_peak == b.tracked_peak;
}

// OnWindow sums contributions in a hash table and scores only the entities
// that are tracked or reach the admission floor; the reference hands every
// total to the same scoring step. Over randomized windows (every key kind
// and a mix of them; source-only, destination-only and both; idle eviction
// at 0, 1 and 30 windows; caps that force capacity evictions and rejected
// admissions; 1 and 4 table shards, as merge_threads 1 and 4 build them;
// per-flow counts straddling min_baseline, zero counts, flows that come and
// go, and a ramp that escalates and recovers) both must produce the same
// alerts, stats and checkpoint bytes after every window.
TEST(EntityDetector, OnWindowMatchesSortEverythingReference) {
  constexpr std::uint32_t kFlows = 160;
  constexpr int kWindows = 60;
  constexpr FlowKeyKind kKinds[] = {
      FlowKeyKind::kFiveTuple, FlowKeyKind::kSrcIp, FlowKeyKind::kDstIp,
      FlowKeyKind::kIpPair, FlowKeyKind::kSrcIpDstPort};
  std::uint64_t alerts = 0, evictions = 0, rejected = 0;
  std::uint64_t seed = 1;
  for (int kind_mode = 0; kind_mode <= 5; ++kind_mode) {  // 5 = mixed
    for (const auto& [track_src, track_dst] :
         {std::pair{true, true}, {true, false}, {false, true}}) {
      for (const std::size_t idle : {0u, 1u, 30u}) {
        for (const std::size_t cap : {3u, 12u, 1024u}) {
          for (const std::size_t shards : {1u, 4u}) {
            DetectorConfig cfg = SmallCfg();
            cfg.track_src = track_src;
            cfg.track_dst = track_dst;
            cfg.idle_evict_windows = idle;
            cfg.max_entities = cap;
            EntityDetector d(cfg, 3);
            EntityDetector ref(cfg, 3);
            std::mt19937_64 rng(seed++);
            const auto pick = [&rng](std::uint64_t n) {
              return std::uint32_t(rng() % n);
            };
            // A fixed flow universe over 40 sources and 24 destinations, so
            // entities sum several flows and recur across windows.
            std::vector<FlowKey> flows;
            for (std::uint32_t i = 0; i < kFlows; ++i) {
              const FlowKeyKind kind =
                  kind_mode < 5 ? kKinds[kind_mode] : kKinds[pick(5)];
              flows.emplace_back(
                  kind, FiveTuple{.src_ip = 0x0A000000u + pick(40) * 0x01010001u,
                                  .dst_ip = 0xC0A80000u + pick(24) * 0x00100101u,
                                  .src_port = std::uint16_t(1024 + i),
                                  .dst_port = std::uint16_t(80 + pick(3)),
                                  .proto = 6});
            }
            const std::uint32_t ramp_src = flows[0].src_ip();
            for (int win = 0; win < kWindows; ++win) {
              // Windows where most flows are absent let tracked entities go
              // idle, drop below the floor and come back.
              const std::uint32_t live_pct =
                  win % 9 == 4 ? 10 : (win % 9 == 5 ? 40 : 85);
              ShardedKeyValueTable table(1024, shards);
              bool created = false;
              for (const FlowKey& key : flows) {
                if (pick(100) >= live_pct) continue;
                std::uint64_t v = pick(10) == 0 ? 0 : pick(24);
                if (key.kind() != FlowKeyKind::kDstIp &&
                    key.src_ip() == ramp_src && win >= 20 && win < 32) {
                  v = 40 * std::uint64_t(win - 18);
                }
                table.FindOrInsert(key, created).attrs[0] += v;
              }
              const TableView view(table);
              WindowResult w;
              w.span = {SubWindowNum(win), SubWindowNum(win + 4)};
              w.table = &view;
              w.completed_at = Nanos(win + 5) * 100 * kMilli;
              w.partial = win % 7 == 3;
              d.OnWindow(w);
              ReferenceOnWindow(ref, cfg, w);
              const std::string where =
                  "kinds " + std::to_string(kind_mode) + " src " +
                  std::to_string(track_src) + " dst " +
                  std::to_string(track_dst) + " idle " + std::to_string(idle) +
                  " cap " + std::to_string(cap) + " shards " +
                  std::to_string(shards) + " window " + std::to_string(win);
              ASSERT_EQ(d.alerts(), ref.alerts()) << where;
              ASSERT_TRUE(StatsEqual(d.stats(), ref.stats())) << where;
              ASSERT_EQ(DetectorBytes(d), DetectorBytes(ref)) << where;
            }
            alerts += d.alerts().size();
            evictions += d.stats().evictions;
            rejected += d.stats().admissions_rejected;
          }
        }
      }
    }
  }
  // The sweep reached every branch it is meant to compare.
  EXPECT_GT(alerts, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- detector checkpoints ---------------------------------------------------

/// One window on switch `sw` whose table holds 40 five-tuple flows; source
/// 10.0.0.1 carries `spike` packets, the others a steady 51..89.
void FeedWindow(DetectionService& svc, std::size_t sw, SubWindowNum w,
                std::uint64_t spike) {
  KeyValueTable table(256);
  bool created = false;
  for (std::uint32_t i = 1; i <= 40; ++i) {
    const FlowKey key(FlowKeyKind::kFiveTuple,
                      {.src_ip = 0x0A000000u + i, .dst_ip = 0xC0A80000u + i % 4,
                       .src_port = 1000, .dst_port = 80, .proto = 6});
    table.FindOrInsert(key, created).attrs[0] = i == 1 ? spike : 50 + i;
  }
  const TableView view(table);
  WindowResult r;
  r.span = {w, SubWindowNum(w + 4)};
  r.table = &view;
  r.completed_at = Nanos(w + 5) * 100 * kMilli;
  svc.OnWindow(sw, r);
}

/// Ten windows on two switches; switch 1 sees a spike that escalates its
/// entity, so the checkpoint carries non-healthy FSM states.
DetectionService WarmService() {
  DetectionService svc(SmallCfg(), 2);
  for (SubWindowNum w = 0; w < 10; ++w) {
    FeedWindow(svc, 0, w, 60);
    FeedWindow(svc, 1, w, w >= 3 ? 4000 : 60);
  }
  return svc;
}

std::vector<std::uint8_t> SaveBytes(const DetectionService& svc) {
  SnapshotWriter w;
  svc.Save(w);
  return w.Take();
}

/// Offset of switch 1's detector section: the stream header (8), the switch
/// count (8) and switch 0's section.
std::size_t SecondSectionOffset(const DetectionService& svc) {
  SnapshotWriter w;
  svc.detector(0).Save(w);
  return 8 + 8 + (w.buffer().size() - 8);
}

/// A failed Load must leave `svc` byte-identical to `before` and usable: one
/// more window on both switches lands exactly as on a clean restore.
void ExpectUnchangedAndUsable(DetectionService& svc,
                              const std::vector<std::uint8_t>& before) {
  ASSERT_EQ(SaveBytes(svc), before);
  DetectionService clean(SmallCfg(), 2);
  SnapshotReader r(before);
  clean.Load(r);
  for (DetectionService* s : {&svc, &clean}) {
    FeedWindow(*s, 0, 10, 60);
    FeedWindow(*s, 1, 10, 4000);
  }
  EXPECT_EQ(SaveBytes(svc), SaveBytes(clean));
}

TEST(DetectSnapshot, RoundTripRestoresEveryDetector) {
  DetectionService svc = WarmService();
  ASSERT_FALSE(svc.Alerts().empty());
  const std::vector<std::uint8_t> bytes = SaveBytes(svc);
  DetectionService restored(SmallCfg(), 2);
  SnapshotReader r(bytes);
  restored.Load(r);
  EXPECT_EQ(SaveBytes(restored), bytes);
  EXPECT_EQ(restored.tracked_total(), svc.tracked_total());
}

TEST(DetectSnapshot, ForgedEntityCountLeavesServiceUnchanged) {
  DetectionService src = WarmService();
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  // Switch 1's entity count sits after its section tag (4) and cold flag
  // (1); forging it must not let switch 0's section commit either.
  const std::size_t at = SecondSectionOffset(src) + 4 + 1;
  const std::uint64_t forged = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + at, &forged, sizeof forged);

  DetectionService svc(SmallCfg(), 2);
  FeedWindow(svc, 0, 0, 60);
  FeedWindow(svc, 1, 0, 60);
  const std::vector<std::uint8_t> before = SaveBytes(svc);
  SnapshotReader r(bytes);
  EXPECT_THROW(svc.Load(r), SnapshotError);
  ExpectUnchangedAndUsable(svc, before);
}

TEST(DetectSnapshot, BadHealthStateByteIsRejected) {
  DetectionService src = WarmService();
  std::vector<std::uint8_t> bytes = SaveBytes(src);
  // Switch 1's first entity: key, baseline, lag-ring length + values, then
  // the FSM's state byte.
  const std::size_t entity = SecondSectionOffset(src) + 4 + 1 + 8;
  std::uint64_t ring = 0;
  std::memcpy(&ring, bytes.data() + entity + sizeof(FlowKey) + 8, 8);
  const std::size_t state = entity + sizeof(FlowKey) + 8 + 8 + ring * 8;
  ASSERT_LT(state, bytes.size());
  ASSERT_LE(bytes[state], std::uint8_t(HealthState::kDown));

  DetectionService svc = WarmService();
  const std::vector<std::uint8_t> before = SaveBytes(svc);
  for (const std::uint8_t bad : {std::uint8_t{3}, std::uint8_t{0xFF}}) {
    for (const std::size_t at : {state, state + 1}) {  // state_, prev_
      std::vector<std::uint8_t> forged = bytes;
      forged[at] = bad;
      SnapshotReader r(forged);
      EXPECT_THROW(svc.Load(r), SnapshotError);
      ASSERT_EQ(SaveBytes(svc), before);
    }
  }
  ExpectUnchangedAndUsable(svc, before);
}

TEST(DetectSnapshot, ForgedEntityKeyIsRejected) {
  DetectionService src = WarmService();
  const std::vector<std::uint8_t> bytes = SaveBytes(src);
  // Switch 1's first entity key: after its section tag (4), cold flag (1)
  // and entity count (8). A stored FlowKey is 13 key bytes, then its length
  // byte and its kind byte; these entity keys are 4 bytes long.
  const std::size_t key = SecondSectionOffset(src) + 4 + 1 + 8;
  DetectionService svc = WarmService();
  const std::vector<std::uint8_t> before = SaveBytes(svc);
  const std::pair<std::size_t, std::uint8_t> forgeries[] = {
      {13, 200}, {14, 9}, {12, 0x5A}};  // length, kind, padding
  for (const auto& [at, value] : forgeries) {
    std::vector<std::uint8_t> forged = bytes;
    forged.at(key + at) = value;
    SnapshotReader r(forged);
    try {
      svc.Load(r);
      ADD_FAILURE() << "forged key byte " << at << " loaded";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("malformed flow key"),
                std::string::npos)
          << e.what();
    }
    ASSERT_EQ(SaveBytes(svc), before);
  }
  ExpectUnchangedAndUsable(svc, before);
}

// Scoring encodes entities as integer codes that only kSrcIp/kDstIp keys
// of four address bytes have, so a well-formed key of any other shape is
// rejected on restore too.
TEST(DetectSnapshot, NonEntityKeyIsRejected) {
  DetectionService src = WarmService();
  const std::vector<std::uint8_t> bytes = SaveBytes(src);
  const std::size_t key = SecondSectionOffset(src) + 4 + 1 + 8;
  DetectionService svc = WarmService();
  const std::vector<std::uint8_t> before = SaveBytes(svc);
  const std::pair<std::size_t, std::uint8_t> forgeries[] = {
      {14, std::uint8_t(FlowKeyKind::kFiveTuple)},
      {14, std::uint8_t(FlowKeyKind::kIpPair)},
      {13, 6}};  // a six-byte source key: padding stays zero
  for (const auto& [at, value] : forgeries) {
    std::vector<std::uint8_t> forged = bytes;
    forged.at(key + at) = value;
    SnapshotReader r(forged);
    try {
      svc.Load(r);
      ADD_FAILURE() << "key byte " << at << " = " << unsigned(value)
                    << " loaded";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("not a source- or destination-ip"),
                std::string::npos)
          << e.what();
    }
    ASSERT_EQ(SaveBytes(svc), before);
  }
  ExpectUnchangedAndUsable(svc, before);
}

TEST(DetectSnapshot, EveryTruncationLeavesServiceUnchanged) {
  const std::vector<std::uint8_t> bytes = SaveBytes(WarmService());
  DetectionService svc(SmallCfg(), 2);
  FeedWindow(svc, 0, 0, 60);
  FeedWindow(svc, 1, 0, 60);
  const std::vector<std::uint8_t> before = SaveBytes(svc);
  // Every cut from inside the first detector section to the last byte.
  for (std::size_t len = 8 + 8; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    SnapshotReader r(cut);
    EXPECT_THROW(svc.Load(r), SnapshotError) << "cut at " << len;
    ASSERT_EQ(SaveBytes(svc), before) << "cut at " << len;
  }
  ExpectUnchangedAndUsable(svc, before);
}

// --- ground-truth matching -------------------------------------------------

TEST(ScoreAlertStream, MatchesPrimaryAndSecondaryEndpoints) {
  InjectedAnomaly label;
  label.kind = "ssh_brute_force";
  label.victim_or_actor = Dst(0xC0A80001);
  label.secondary.push_back(Src(0xAC100200));
  label.start = 1 * kSecond;
  label.end = 2 * kSecond;

  EXPECT_TRUE(detect::EntityMatchesLabel(Dst(0xC0A80001), label));
  EXPECT_TRUE(detect::EntityMatchesLabel(Src(0xAC100200), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Src(0xC0A80001), label));  // side
  EXPECT_FALSE(detect::EntityMatchesLabel(Dst(0xAC100200), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Dst(0x0A000001), label));

  Alert hit;
  hit.entity = Src(0xAC100200);
  hit.from = HealthState::kHealthy;
  hit.to = HealthState::kDegraded;
  hit.window_start = 1200 * kMilli;
  hit.window_end = 1700 * kMilli;
  Alert miss = hit;
  miss.entity = Src(0x0A000009);  // unrelated entity -> false positive
  Alert recovery = hit;
  recovery.from = HealthState::kDegraded;
  recovery.to = HealthState::kHealthy;  // informational: excluded
  Alert late = hit;
  late.window_start = 4 * kSecond;  // outside label + slack
  late.window_end = late.window_start + 500 * kMilli;

  const detect::StreamingScore s =
      detect::ScoreAlertStream({hit, miss, recovery, late}, {label});
  EXPECT_EQ(s.actionable_alerts, 3u);
  EXPECT_EQ(s.matched_alerts, 1u);
  EXPECT_EQ(s.labels_detected, 1u);
  EXPECT_DOUBLE_EQ(s.pr.precision, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.pr.recall, 1.0);
  EXPECT_EQ(s.mean_detection_latency, 700 * kMilli);
}

TEST(ScoreAlertStream, FiveTupleLabelsMatchBothSides) {
  InjectedAnomaly label;
  label.kind = "boundary_burst";
  label.victim_or_actor =
      FlowKey(FlowKeyKind::kFiveTuple,
              {.src_ip = 0xAC107000, .dst_ip = 0xC0A80007, .src_port = 1024,
               .dst_port = 80, .proto = 6});
  EXPECT_TRUE(detect::EntityMatchesLabel(Src(0xAC107000), label));
  EXPECT_TRUE(detect::EntityMatchesLabel(Dst(0xC0A80007), label));
  EXPECT_FALSE(detect::EntityMatchesLabel(Src(0xC0A80007), label));
}

// --- end to end on a fabric ------------------------------------------------

struct LabeledTrace {
  Trace trace;
  std::vector<InjectedAnomaly> labels;
};

/// Background plus four anomalies, all starting after the detector's first
/// (cold, baseline-seeding) 500 ms window.
LabeledTrace MakeAttackTrace() {
  TraceConfig tc;
  tc.seed = 91;
  tc.duration = 2'500 * kMilli;
  tc.packets_per_sec = 10'000;
  tc.num_flows = 2'000;
  TraceGenerator gen(tc);
  LabeledTrace out;
  out.trace = gen.GenerateBackground();
  gen.InjectSynFlood(out.trace, 700 * kMilli, 600 * kMilli, 500);
  gen.InjectSlowloris(out.trace, 1'000 * kMilli, 1'000 * kMilli, 60);
  gen.InjectSuperSpreader(out.trace, 1'200 * kMilli, 500 * kMilli, 400);
  gen.InjectBoundaryBurst(out.trace, 1'500 * kMilli, 60 * kMilli, 150);
  out.trace.SortByTime();
  out.labels = gen.injected();
  return out;
}

WindowSpec SlidingSpec() {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  return spec;
}

std::vector<Alert> RunFabricDetection(const LabeledTrace& lt,
                                      TopologyConfig topo,
                                      std::size_t merge_threads,
                                      std::size_t engine_threads,
                                      DetectionService** out_service,
                                      DetectionService* storage) {
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(SlidingSpec());
  cfg.base.controller.kv_capacity = 1 << 15;
  cfg.base.controller.merge_threads = merge_threads;
  cfg.topology = topo;
  cfg.parallel.threads = engine_threads;
  *storage = DetectionService(DetectorConfig{}, TopologySwitchCount(topo));
  cfg.window_observer = storage->Observer();
  RunOmniWindowFabric(
      lt.trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);
  if (out_service) *out_service = storage;
  return storage->Alerts();
}

TEST(DetectEndToEnd, StreamsAlertsForInjectedAnomaliesWithBoundedMemory) {
  const LabeledTrace lt = MakeAttackTrace();
  TopologyConfig topo;
  topo.kind = TopologyKind::kLine;
  topo.line_switches = 1;
  DetectionService storage(DetectorConfig{}, 0);
  DetectionService* svc = nullptr;
  const std::vector<Alert> alerts =
      RunFabricDetection(lt, topo, 1, 0, &svc, &storage);

  const detect::StreamingScore s = detect::ScoreAlertStream(alerts, lt.labels);
  EXPECT_EQ(s.labels, 4u);
  EXPECT_EQ(s.labels_detected, 4u) << "recall " << s.pr.recall;
  EXPECT_GE(s.pr.precision, 0.9);
  // Streaming: every alert fired at its window's completion time, which is
  // inside the run, not after it.
  for (const Alert& a : alerts) {
    EXPECT_GE(a.completed_at, a.window_end);
    EXPECT_LT(a.completed_at, Nanos(4) * kSecond);
  }
  // Bounded memory: tracked entities stay under the per-switch cap.
  EXPECT_LE(svc->TotalStats().tracked_peak, DetectorConfig{}.max_entities);
  EXPECT_GT(svc->TotalStats().tracked_peak, 0u);
}

TEST(DetectEndToEnd, AlertStreamBitIdenticalAcrossMergeThreads) {
  const LabeledTrace lt = MakeAttackTrace();
  TopologyConfig topo;
  topo.kind = TopologyKind::kLine;
  topo.line_switches = 2;
  DetectionService s1(DetectorConfig{}, 0), s2(DetectorConfig{}, 0);
  const std::vector<Alert> a = RunFabricDetection(lt, topo, 1, 0, nullptr, &s1);
  const std::vector<Alert> b = RunFabricDetection(lt, topo, 4, 0, nullptr, &s2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(DetectEndToEnd, AlertStreamBitIdenticalAcrossEngineThreads) {
  const LabeledTrace lt = MakeAttackTrace();
  TopologyConfig topo;
  topo.kind = TopologyKind::kLeafSpine;
  topo.leaves = 2;
  topo.spines = 2;
  DetectionService s1(DetectorConfig{}, 0), s2(DetectorConfig{}, 0);
  const std::vector<Alert> a = RunFabricDetection(lt, topo, 1, 0, nullptr, &s1);
  const std::vector<Alert> b = RunFabricDetection(lt, topo, 1, 4, nullptr, &s2);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

/// Digest of a whole detection run: every alert in canonical order (switch,
/// entity, transition, span, completion time, value, partial flag and the
/// score's bit pattern) chained, then the summed detector stats. Integers
/// only (Mix64, FlowKey::Hash, bit_cast), so every compiler computes the
/// same value.
std::uint64_t AlertDigest(const DetectionService& svc) {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t f) { h = Mix64(h ^ f); };
  for (const Alert& a : svc.Alerts()) {
    mix(std::uint64_t(a.switch_id));
    mix(a.entity.Hash(0xA1E27ull));
    mix(std::uint64_t(a.from));
    mix(std::uint64_t(a.to));
    mix(a.span.first);
    mix(a.span.last);
    mix(std::uint64_t(a.completed_at));
    mix(a.value);
    mix(a.partial);
    mix(std::bit_cast<std::uint64_t>(a.score));
  }
  const EntityDetector::Stats t = svc.TotalStats();
  for (const std::uint64_t f :
       {t.windows, t.partial_windows, t.transitions_degraded,
        t.transitions_down, t.recoveries, t.evictions, t.admissions_rejected,
        std::uint64_t(t.tracked_peak)}) {
    mix(f);
  }
  return h;
}

// The alert stream of a leaf-spine evaluation run (every anomaly kind the
// generator injects, thinned to 20k packets/s over 2 s), pinned to a
// recorded digest. Comparing thread counts with each other cannot catch a
// change to the aggregation or scoring that shifts every run alike; this
// can. A deliberate change to detector behaviour re-records the value.
TEST(DetectEndToEnd, LeafSpineAlertDigestMatchesRecorded) {
  TraceConfig tc;
  tc.seed = 7;
  tc.duration = 2 * kSecond;
  tc.packets_per_sec = 20'000;
  tc.num_flows = 4'000;
  TraceGenerator gen(tc);
  const Trace trace = gen.GenerateEvaluationTrace();

  TopologyConfig topo;
  topo.kind = TopologyKind::kLeafSpine;
  topo.leaves = 2;
  topo.spines = 2;
  for (const std::size_t threads : {0u, 2u}) {
    NetworkRunConfig cfg;
    cfg.base = RunConfig::Make(SlidingSpec());
    cfg.base.controller.kv_capacity = 1 << 16;
    cfg.topology = topo;
    cfg.link.latency = 20 * kMicro;
    cfg.link.jitter = 0;
    cfg.parallel.threads = threads;
    DetectionService svc(DetectorConfig{}, TopologySwitchCount(topo));
    cfg.window_observer = svc.Observer();
    RunOmniWindowFabric(
        trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
        cfg);
    ASSERT_FALSE(svc.Alerts().empty());
    EXPECT_EQ(AlertDigest(svc), 0xbcae50a65fa68ebdull) << "threads=" << threads;
  }
}

TEST(DetectObs, CountersTrackWindowsAndTransitions) {
  obs::Global().Reset();
  EntityDetector d(SmallCfg(), 0);
  Totals totals{{Src(1), 100}};
  Feed(d, totals, 0);
  totals[Src(1)] = 600;
  for (SubWindowNum w = 1; w < 4; ++w) Feed(d, totals, w);
  EXPECT_EQ(obs::Global().GetCounter("detect.windows").value(),
            d.stats().windows);
  EXPECT_EQ(obs::Global().GetCounter("detect.transitions.degraded").value(),
            d.stats().transitions_degraded);
  EXPECT_GT(d.stats().transitions_degraded, 0u);
}

}  // namespace
}  // namespace ow
