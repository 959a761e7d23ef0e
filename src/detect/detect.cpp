#include "src/detect/detect.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/common/snapshot.h"
#include "src/obs/obs.h"

namespace ow::detect {
namespace {

// An entity is a kSrcIp or kDstIp key: four address bytes, zero padded.
// Its code is those bytes read big-endian, shifted above the kind byte.
// FlowKey's ordering compares the stored bytes first, then the length (4
// for both kinds), then the kind, so integer order on codes is key order.
// The kind byte is nonzero, so no code is 0.

bool IsEntityKey(const FlowKey& key) {
  return (key.kind() == FlowKeyKind::kSrcIp ||
          key.kind() == FlowKeyKind::kDstIp) &&
         key.bytes().size() == 4;
}

std::uint64_t EntityCode(const std::uint8_t* ip, FlowKeyKind kind) {
  const std::uint32_t be = std::uint32_t(ip[0]) << 24 |
                           std::uint32_t(ip[1]) << 16 |
                           std::uint32_t(ip[2]) << 8 | std::uint32_t(ip[3]);
  return std::uint64_t(be) << 8 | std::uint64_t(kind);
}

std::uint64_t EntityCode(const FlowKey& entity) {
  return EntityCode(entity.bytes().data(), entity.kind());
}

FlowKey EntityKey(std::uint64_t code) {
  const std::uint8_t ip[4] = {std::uint8_t(code >> 32),
                              std::uint8_t(code >> 24),
                              std::uint8_t(code >> 16),
                              std::uint8_t(code >> 8)};
  return FlowKey::FromRaw(FlowKeyKind(code & 0xFF), ip);
}

}  // namespace

const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDown: return "down";
  }
  return "?";
}

void ScoreModel::Absorb(double value, bool freeze,
                        const ScoreModelConfig& cfg) {
  lag_ring_.push_back(value);
  if (lag_ring_.size() <= cfg.baseline_lag) return;
  const double delayed = lag_ring_.front();
  lag_ring_.erase(lag_ring_.begin());
  // While the entity is suspect the delayed value is discarded outright:
  // attack-era traffic must never become the baseline it is judged against.
  if (!freeze) {
    baseline_ = cfg.alpha * delayed + (1.0 - cfg.alpha) * baseline_;
  }
}

bool HysteresisFsm::Step(double score, const HysteresisConfig& cfg) {
  HealthState next = state_;
  switch (state_) {
    case HealthState::kHealthy:
      if (score >= cfg.enter_score) {
        cool_streak_ = 0;
        if (++hot_streak_ >= cfg.enter_dwell) next = HealthState::kDegraded;
      } else {
        hot_streak_ = 0;
      }
      break;
    case HealthState::kDegraded:
      if (score >= cfg.down_score) {
        cool_streak_ = 0;
        if (++hot_streak_ >= cfg.enter_dwell) next = HealthState::kDown;
      } else if (score <= cfg.exit_score) {
        hot_streak_ = 0;
        if (++cool_streak_ >= cfg.exit_dwell) next = HealthState::kHealthy;
      } else {
        // Hysteresis band: hold the state, reset both streaks.
        hot_streak_ = 0;
        cool_streak_ = 0;
      }
      break;
    case HealthState::kDown:
      if (score <= cfg.exit_score) {
        hot_streak_ = 0;
        if (++cool_streak_ >= cfg.exit_dwell) next = HealthState::kDegraded;
      } else {
        cool_streak_ = 0;
      }
      break;
  }
  if (next == state_) return false;
  prev_ = state_;
  state_ = next;
  hot_streak_ = 0;
  cool_streak_ = 0;
  return true;
}

EntityDetector::EntityDetector(const DetectorConfig& cfg, int switch_id)
    : cfg_(cfg), switch_id_(switch_id) {
  auto& reg = obs::Global();
  c_windows_ = &reg.GetCounter("detect.windows");
  c_partial_ = &reg.GetCounter("detect.windows_partial");
  c_degraded_ = &reg.GetCounter("detect.transitions.degraded");
  c_down_ = &reg.GetCounter("detect.transitions.down");
  c_recovered_ = &reg.GetCounter("detect.transitions.recovered");
  c_evictions_ = &reg.GetCounter("detect.evictions");
  c_rejected_ = &reg.GetCounter("detect.admissions_rejected");
}

void EntityDetector::OnWindow(const WindowResult& w) {
  // Sum each entity's contributions (a commutative u64 sum, so shard
  // iteration order cannot reach the totals). At least 4 slots per live
  // flow keep the table at most half full: a flow adds at most two
  // entities.
  const std::size_t want =
      std::bit_ceil(std::max<std::size_t>(4 * w.table->size(), 64));
  if (sums_.size() < want) {
    sums_.assign(want, CodeTotal{});
    // Each list holds at most one entry per distinct entity.
    touched_.reserve(want / 2);
    scored_.reserve(want / 2);
    totals_.reserve(want / 2);
  }
  const std::size_t mask = sums_.size() - 1;
  const int shift = 64 - std::countr_zero(sums_.size());
  const auto slot_of = [shift](std::uint64_t code) {
    // Fibonacci hashing: the top bits of the product index the table.
    return std::size_t((code * 0x9E3779B97F4A7C15ull) >> shift);
  };
  const auto add = [&](const std::uint8_t* ip, FlowKeyKind kind,
                       std::uint64_t v) {
    const std::uint64_t code = EntityCode(ip, kind);
    std::size_t i = slot_of(code);
    while (sums_[i].code != code) {
      if (sums_[i].code == 0) {
        sums_[i].code = code;
        touched_.push_back(i);
        break;
      }
      i = (i + 1) & mask;
    }
    sums_[i].value += v;
  };
  w.table->ForEach([&](const KvSlot& slot) {
    const std::uint64_t v = slot.attrs[0];
    if (v == 0) return;
    // Every projection keeps the source address at offset 0; the pair
    // kinds keep the destination at offset 4.
    const std::uint8_t* raw = slot.key.bytes().data();
    switch (slot.key.kind()) {
      case FlowKeyKind::kFiveTuple:
      case FlowKeyKind::kIpPair:
        if (cfg_.track_src) add(raw, FlowKeyKind::kSrcIp, v);
        if (cfg_.track_dst) add(raw + 4, FlowKeyKind::kDstIp, v);
        break;
      case FlowKeyKind::kSrcIp:
        if (cfg_.track_src) add(raw, FlowKeyKind::kSrcIp, v);
        break;
      case FlowKeyKind::kDstIp:
        if (cfg_.track_dst) add(raw, FlowKeyKind::kDstIp, v);
        break;
      case FlowKeyKind::kSrcIpDstPort:
        // Only the source address survives this projection.
        if (cfg_.track_src) add(raw, FlowKeyKind::kSrcIp, v);
        break;
    }
  });

  // Score acts on an entity only if it is tracked or its total reaches the
  // admission floor; it skips an untracked entity below the floor. So keep
  // every total at or above the floor, then look up each tracked entity
  // and keep it too if it is present below the floor. A tracked entity
  // absent from the window stays out, so Score steps it as absent (idle
  // eviction included), exactly as if every total had been passed.
  scored_.clear();
  for (const std::size_t i : touched_) {
    if (double(sums_[i].value) >= cfg_.score.min_baseline) {
      scored_.push_back(sums_[i]);
    }
  }
  for (const auto& [key, st] : entities_) {
    const std::uint64_t code = EntityCode(key);
    for (std::size_t i = slot_of(code); sums_[i].code != 0;
         i = (i + 1) & mask) {
      if (sums_[i].code != code) continue;
      if (double(sums_[i].value) < cfg_.score.min_baseline) {
        scored_.push_back(sums_[i]);
      }
      break;
    }
  }
  for (const std::size_t i : touched_) sums_[i] = CodeTotal{};
  touched_.clear();

  std::sort(scored_.begin(), scored_.end(),
            [](const CodeTotal& a, const CodeTotal& b) {
              return a.code < b.code;
            });
  totals_.clear();
  for (const CodeTotal& t : scored_) {
    totals_.push_back({EntityKey(t.code), t.value});
  }
  Score(totals_, w.span, w.completed_at, w.partial);
}

bool EntityDetector::Admit(const FlowKey& key, double value,
                           EntityState** out) {
  if (entities_.size() >= cfg_.max_entities) {
    // Evict the quiet entity with the smallest baseline, but only if the
    // newcomer looks bigger than what it displaces. std::map order makes
    // the tie-break (smallest key) deterministic. The scan is
    // O(max_entities) per admission attempt at cap; that is acceptable
    // because admissions are floor-gated (min_baseline) and the cap is
    // sized so steady state sits below it — sustained churn of distinct
    // above-floor sources pays O(cap) per newcomer per window.
    auto victim = entities_.end();
    double victim_baseline = value;
    for (auto it = entities_.begin(); it != entities_.end(); ++it) {
      if (!it->second.fsm.quiet()) continue;
      if (it->second.model.baseline() < victim_baseline) {
        victim = it;
        victim_baseline = it->second.model.baseline();
        // Baselines cannot be negative: the first quiet zero-baseline
        // entity (smallest key among them) is already the final choice.
        if (victim_baseline <= 0.0) break;
      }
    }
    if (victim == entities_.end()) {
      ++stats_.admissions_rejected;
      c_rejected_->Add();
      return false;
    }
    entities_.erase(victim);
    ++stats_.evictions;
    c_evictions_->Add();
  }
  *out = &entities_[key];
  (*out)->model.Reserve(cfg_.score);
  stats_.tracked_peak = std::max(stats_.tracked_peak, entities_.size());
  return true;
}

void EntityDetector::StepEntity(const FlowKey& key, EntityState& st,
                                std::uint64_t value, SubWindowSpan span,
                                Nanos completed_at, bool partial) {
  const double v = double(value);
  const double score = st.model.Score(v, cfg_.score);
  const bool suspect = score >= cfg_.fsm.enter_score ||
                       st.fsm.state() != HealthState::kHealthy;
  const HealthState before = st.fsm.state();
  if (st.fsm.Step(score, cfg_.fsm)) {
    const HealthState after = st.fsm.state();
    Alert a;
    a.switch_id = switch_id_;
    a.entity = key;
    a.from = before;
    a.to = after;
    a.score = score;
    a.value = value;
    a.span = span;
    a.window_start = Nanos(span.first) * cfg_.subwindow_size;
    a.window_end = Nanos(span.last + 1) * cfg_.subwindow_size;
    a.completed_at = completed_at;
    a.partial = partial;
    alerts_.push_back(a);
    switch (after) {
      case HealthState::kDegraded:
        if (before == HealthState::kHealthy) {
          ++stats_.transitions_degraded;
          c_degraded_->Add();
        } else {
          ++stats_.recoveries;  // down -> degraded is a partial recovery
          c_recovered_->Add();
        }
        break;
      case HealthState::kDown:
        ++stats_.transitions_down;
        c_down_->Add();
        break;
      case HealthState::kHealthy:
        ++stats_.recoveries;
        c_recovered_->Add();
        break;
    }
  }
  st.model.Absorb(v, suspect, cfg_.score);
  if (value == 0) {
    ++st.idle_windows;
  } else {
    st.idle_windows = 0;
  }
}

void EntityDetector::OnTotals(std::span<const EntityTotal> totals,
                              SubWindowSpan span, Nanos completed_at,
                              bool partial) {
  for (const EntityTotal& t : totals) {
    if (!IsEntityKey(t.entity)) {
      throw std::invalid_argument(
          "EntityDetector::OnTotals: " + t.entity.ToString() +
          " is not a source- or destination-ip entity key");
    }
  }
  const auto unordered = std::adjacent_find(
      totals.begin(), totals.end(),
      [](const EntityTotal& a, const EntityTotal& b) {
        return !(a.entity < b.entity);
      });
  if (unordered != totals.end()) {
    throw std::invalid_argument(
        "EntityDetector::OnTotals: totals not strictly ascending at " +
        unordered->entity.ToString());
  }
  Score(totals, span, completed_at, partial);
}

void EntityDetector::Score(std::span<const EntityTotal> totals,
                           SubWindowSpan span, Nanos completed_at,
                           bool partial) {
  ++stats_.windows;
  c_windows_->Add();
  if (partial) {
    ++stats_.partial_windows;
    c_partial_->Add();
  }

  if (cold_) {
    // The detector's first-ever window has no history to deviate from:
    // adopt it as the baseline. Steady heavy background entities must not
    // alert simply for existing; genuinely anomalous later arrivals will
    // deviate from these seeds.
    cold_ = false;
    for (const auto& [key, value] : totals) {
      if (double(value) < cfg_.score.min_baseline) continue;
      EntityState* st = nullptr;
      if (Admit(key, double(value), &st)) st->model.Seed(double(value));
    }
    return;
  }

  // One pass over the union of tracked entities and this window's totals,
  // in key order. Tracked entities absent from the window step with value
  // zero (their baseline decays toward eviction); untracked entities above
  // the admission floor start being tracked. Admissions are deferred past
  // the merge: Admit() at the capacity cap evicts an arbitrary quiet entity
  // from entities_, which could be the very element the merge cursor points
  // at — erasing it mid-pass would leave `te` dangling.
  fresh_.clear();
  auto te = entities_.begin();
  auto tv = totals.begin();
  while (te != entities_.end() || tv != totals.end()) {
    if (tv == totals.end() ||
        (te != entities_.end() && te->first < tv->entity)) {
      // Tracked, absent this window.
      StepEntity(te->first, te->second, 0, span, completed_at, partial);
      if (te->second.fsm.quiet() &&
          te->second.idle_windows >= cfg_.idle_evict_windows) {
        te = entities_.erase(te);
        ++stats_.evictions;
        c_evictions_->Add();
      } else {
        ++te;
      }
    } else if (te == entities_.end() || tv->entity < te->first) {
      // Present, untracked: admission-gate on the scoring floor.
      if (double(tv->value) >= cfg_.score.min_baseline) {
        fresh_.push_back(*tv);
      }
      ++tv;
    } else {
      StepEntity(te->first, te->second, tv->value, span, completed_at,
                 partial);
      ++te;
      ++tv;
    }
  }
  // `fresh_` is in key order (totals is sorted), so admissions and any
  // capacity evictions they trigger remain deterministic.
  for (const auto& [key, value] : fresh_) {
    EntityState* st = nullptr;
    if (Admit(key, double(value), &st)) {
      StepEntity(key, *st, value, span, completed_at, partial);
    }
  }
  stats_.tracked_peak = std::max(stats_.tracked_peak, entities_.size());
}

DetectionService::DetectionService(const DetectorConfig& cfg,
                                   std::size_t num_switches) {
  for (std::size_t i = 0; i < num_switches; ++i) {
    detectors_.emplace_back(cfg, int(i));
  }
}

void DetectionService::OnWindow(std::size_t switch_id, const WindowResult& w) {
  detectors_[switch_id].OnWindow(w);
}

std::function<void(std::size_t, const WindowResult&)>
DetectionService::Observer() {
  return [this](std::size_t switch_id, const WindowResult& w) {
    OnWindow(switch_id, w);
  };
}

std::vector<Alert> DetectionService::Alerts() const {
  std::vector<Alert> all;
  for (const auto& d : detectors_) {
    all.insert(all.end(), d.alerts().begin(), d.alerts().end());
  }
  std::sort(all.begin(), all.end(), [](const Alert& a, const Alert& b) {
    if (a.window_end != b.window_end) return a.window_end < b.window_end;
    if (a.switch_id != b.switch_id) return a.switch_id < b.switch_id;
    if (a.entity != b.entity) return a.entity < b.entity;
    return a.to < b.to;
  });
  return all;
}

std::size_t DetectionService::tracked_total() const {
  std::size_t n = 0;
  for (const auto& d : detectors_) n += d.tracked();
  return n;
}

EntityDetector::Stats DetectionService::TotalStats() const {
  EntityDetector::Stats t;
  for (const auto& d : detectors_) {
    const auto& s = d.stats();
    t.windows += s.windows;
    t.partial_windows += s.partial_windows;
    t.transitions_degraded += s.transitions_degraded;
    t.transitions_down += s.transitions_down;
    t.recoveries += s.recoveries;
    t.evictions += s.evictions;
    t.admissions_rejected += s.admissions_rejected;
    t.tracked_peak += s.tracked_peak;
  }
  return t;
}

void ScoreModel::Save(SnapshotWriter& w) const {
  w.F64(baseline_);
  w.PodVec(lag_ring_);
}

void ScoreModel::Load(SnapshotReader& r) {
  baseline_ = r.F64();
  r.PodVec(lag_ring_);
}

void HysteresisFsm::Save(SnapshotWriter& w) const {
  w.U8(std::uint8_t(state_));
  w.U8(std::uint8_t(prev_));
  w.I64(hot_streak_);
  w.I64(cool_streak_);
}

void HysteresisFsm::Load(SnapshotReader& r) {
  const auto health = [&r] {
    const std::uint8_t b = r.U8();
    if (b > std::uint8_t(HealthState::kDown)) {
      throw SnapshotError("HysteresisFsm: invalid health state " +
                          std::to_string(unsigned(b)));
    }
    return HealthState(b);
  };
  state_ = health();
  prev_ = health();
  hot_streak_ = int(r.I64());
  cool_streak_ = int(r.I64());
}

void EntityDetector::Save(SnapshotWriter& w) const {
  w.Section(snap::kDetector);
  w.Bool(cold_);
  w.Size(entities_.size());
  for (const auto& [key, st] : entities_) {
    w.Pod(key);
    st.model.Save(w);
    st.fsm.Save(w);
    w.U32(st.idle_windows);
  }
  w.Pod(stats_);
}

EntityDetector::Decoded EntityDetector::Decode(SnapshotReader& r) const {
  // Smallest encoded entity: key, baseline, empty lag ring (its length
  // prefix), FSM states and streaks, idle count.
  constexpr std::size_t kMinEntityBytes =
      sizeof(FlowKey) + 8 + 8 + 2 * 1 + 2 * 8 + 4;
  r.Section(snap::kDetector);
  Decoded d;
  d.cold = r.Bool();
  const std::size_t n = r.Count(kMinEntityBytes);
  for (std::size_t i = 0; i < n; ++i) {
    const FlowKey key = ReadFlowKey(r);
    if (!IsEntityKey(key)) {
      throw SnapshotError("EntityDetector: entity " + std::to_string(i) +
                          " is not a source- or destination-ip key");
    }
    // Save walks the ordered map, so keys arrive strictly ascending; a
    // duplicate or out-of-order key means the stream is corrupt.
    if (!d.entities.empty() && !(d.entities.rbegin()->first < key)) {
      throw SnapshotError("EntityDetector: entity " + std::to_string(i) +
                          " out of key order");
    }
    EntityState& st =
        d.entities.emplace_hint(d.entities.end(), key, EntityState{})->second;
    st.model.Load(r);
    st.model.Reserve(cfg_.score);
    st.fsm.Load(r);
    st.idle_windows = r.U32();
  }
  r.Pod(d.stats);
  return d;
}

void EntityDetector::Commit(Decoded&& d) noexcept {
  cold_ = d.cold;
  entities_.swap(d.entities);
  stats_ = d.stats;
}

void EntityDetector::Load(SnapshotReader& r) { Commit(Decode(r)); }

void DetectionService::Save(SnapshotWriter& w) const {
  w.Size(detectors_.size());
  for (const EntityDetector& d : detectors_) d.Save(w);
}

void DetectionService::Load(SnapshotReader& r) {
  CheckShape(snap::kDetector, "DetectionService", "switch count",
             detectors_.size(), r.Size());
  // Decode every switch's section before committing any: a stream that
  // fails part-way leaves the whole service unchanged.
  std::vector<EntityDetector::Decoded> decoded;
  decoded.reserve(detectors_.size());
  for (const EntityDetector& d : detectors_) decoded.push_back(d.Decode(r));
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i].Commit(std::move(decoded[i]));
  }
}

}  // namespace ow::detect
