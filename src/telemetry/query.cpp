#include "src/telemetry/query.h"

#include <stdexcept>

namespace ow {
namespace {

bool IsTcp(const Packet& p) { return p.ft.proto == 6; }
bool IsSyn(const Packet& p) {
  return IsTcp(p) && (p.tcp_flags & kTcpSyn) && !(p.tcp_flags & kTcpAck);
}
bool IsFin(const Packet& p) { return IsTcp(p) && (p.tcp_flags & kTcpFin); }

std::uint64_t ConnElement(const Packet& p) {
  // A "connection" element: the full five-tuple.
  return p.ft.Hash(0xC011EC7ull);
}
std::uint64_t SrcElement(const Packet& p) {
  return HashValue(p.ft.src_ip, 0x51CE1E11ull);
}
std::uint64_t DstPortElement(const Packet& p) {
  return HashValue(p.ft.dst_port, 0xD057F087ull);
}
std::uint64_t SrcPortElement(const Packet& p) {
  return HashValue(p.ft.src_port, 0x51C70087ull);
}

}  // namespace

std::vector<QueryDef> StandardQueries() {
  std::vector<QueryDef> qs;
  // Q1: hosts opening too many new TCP connections — distinct SYN'd
  // connections per source.
  qs.push_back({.name = "Q1_new_tcp_conns",
                .filter = IsSyn,
                .key_kind = FlowKeyKind::kSrcIp,
                .aggregate = QueryAggregate::kDistinct,
                .element = ConnElement,
                .threshold = 120});
  // Q2: SSH brute force — distinct connection attempts hitting :22.
  qs.push_back({.name = "Q2_ssh_brute_force",
                .filter = [](const Packet& p) {
                  return IsTcp(p) && p.ft.dst_port == 22;
                },
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kDistinct,
                .element = ConnElement,
                .threshold = 60});
  // Q3: port scanning — distinct destination ports probed per victim.
  qs.push_back({.name = "Q3_port_scan",
                .filter = IsSyn,
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kDistinct,
                .element = DstPortElement,
                .threshold = 90});
  // Q4: DDoS — distinct sources per victim.
  qs.push_back({.name = "Q4_ddos",
                .filter = nullptr,
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kDistinct,
                .element = SrcElement,
                .threshold = 150});
  // Q5: SYN flood — SYN packet count per victim.
  qs.push_back({.name = "Q5_syn_flood",
                .filter = IsSyn,
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kCount,
                .element = nullptr,
                .threshold = 120});
  // Q6: completed-flow surge — FIN count per host.
  qs.push_back({.name = "Q6_completed_flows",
                .filter = IsFin,
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kCount,
                .element = nullptr,
                .threshold = 45});
  // Q7: slowloris — many tiny-payload connections per victim.
  qs.push_back({.name = "Q7_slowloris",
                .filter = [](const Packet& p) {
                  return IsTcp(p) && p.size_bytes <= 80;
                },
                .key_kind = FlowKeyKind::kDstIp,
                .aggregate = QueryAggregate::kDistinct,
                .element = SrcPortElement,
                .threshold = 35});
  return qs;
}

QueryDef StandardQuery(int number) {
  auto qs = StandardQueries();
  if (number < 1 || std::size_t(number) > qs.size()) {
    throw std::out_of_range("StandardQuery: expected 1..7");
  }
  return qs[std::size_t(number - 1)];
}

QueryAdapter::QueryAdapter(QueryDef def, std::size_t cells_per_region,
                           std::uint64_t seed)
    : def_(std::move(def)), cells_(cells_per_region), seed_(seed) {
  if (cells_ == 0) {
    throw std::invalid_argument("QueryAdapter: cells_per_region must be > 0");
  }
  const std::size_t arrays =
      def_.aggregate == QueryAggregate::kDistinct ? 4 : 1;
  for (std::size_t i = 0; i < arrays; ++i) {
    arrays_.push_back(std::make_unique<RegionedArray>(
        def_.name + "_state" + std::to_string(i), cells_, 8));
  }
}

std::size_t QueryAdapter::CellOf(const FlowKey& key) const {
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(key.Hash(seed_)) * cells_) >> 64);
}

void QueryAdapter::Update(const Packet& p, int region) {
  if (def_.filter && !def_.filter(p)) return;
  const FlowKey key = p.Key(def_.key_kind);
  const std::size_t cell = CellOf(key);
  switch (def_.aggregate) {
    case QueryAggregate::kCount:
      arrays_[0]->ReadModifyWrite(region, cell,
                                  [](std::uint64_t v) { return v + 1; });
      break;
    case QueryAggregate::kSumBytes:
      arrays_[0]->ReadModifyWrite(region, cell, [&](std::uint64_t v) {
        return v + p.size_bytes;
      });
      break;
    case QueryAggregate::kDistinct: {
      // One bit of the 256-bit signature: selects which of the four arrays
      // (signature words) is touched — a single SALU access per packet.
      const std::uint64_t eh = def_.element(p);
      const std::size_t bit = std::size_t(Mix64(eh) % 256);
      arrays_[bit / 64]->ReadModifyWrite(
          region, cell,
          [&](std::uint64_t v) { return v | (1ull << (bit % 64)); });
      break;
    }
  }
}

FlowRecord QueryAdapter::Query(const FlowKey& key, int region,
                               SubWindowNum subwindow) const {
  FlowRecord rec;
  rec.key = key;
  rec.subwindow = subwindow;
  const std::size_t cell = CellOf(key);
  if (def_.aggregate == QueryAggregate::kDistinct) {
    for (std::size_t i = 0; i < 4; ++i) {
      rec.attrs[i] = arrays_[i]->ControlRead(region, cell);
    }
    rec.num_attrs = 4;
  } else {
    rec.attrs[0] = arrays_[0]->ControlRead(region, cell);
    rec.num_attrs = 1;
  }
  return rec;
}

void QueryAdapter::ResetSlice(int region, std::size_t index) {
  // One clear packet resets the same position of every register array in a
  // single pass (§4.3).
  for (auto& arr : arrays_) arr->ControlWrite(region, index, 0);
}

std::vector<RegisterArray*> QueryAdapter::Registers() {
  std::vector<RegisterArray*> regs;
  regs.reserve(arrays_.size());
  for (auto& arr : arrays_) regs.push_back(&arr->register_array());
  return regs;
}

void QueryAdapter::ChargeResources(ResourceLedger& ledger) const {
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    ledger.Charge("App:" + def_.name,
                  arrays_[i]->Resources(int(6 + i % 2)));
  }
}

bool QueryAdapter::OverThreshold(const KvSlot& slot) const {
  if (def_.aggregate == QueryAggregate::kDistinct) {
    const Signature256 sig{slot.attrs[0], slot.attrs[1], slot.attrs[2],
                           slot.attrs[3]};
    return LcSignatureEstimate(sig) >= double(def_.threshold);
  }
  return slot.attrs[0] >= def_.threshold;
}

FlowSet QueryAdapter::Detect(TableView table) const {
  FlowSet out;
  table.ForEach([&](const KvSlot& slot) {
    if (OverThreshold(slot)) out.insert(slot.key);
  });
  return out;
}

FlowCounts IdealQueryEngine::Aggregate(const QueryDef& def, Nanos start,
                                       Nanos end) const {
  FlowCounts counts;
  std::unordered_map<FlowKey, std::unordered_set<std::uint64_t>,
                     FlowKeyHasher>
      distinct;
  for (const Packet& p : trace_->packets) {
    if (p.ts < start) continue;
    if (p.ts >= end) break;  // trace is time sorted
    if (def.filter && !def.filter(p)) continue;
    const FlowKey key = p.Key(def.key_kind);
    switch (def.aggregate) {
      case QueryAggregate::kCount:
        ++counts[key];
        break;
      case QueryAggregate::kSumBytes:
        counts[key] += p.size_bytes;
        break;
      case QueryAggregate::kDistinct:
        distinct[key].insert(def.element(p));
        break;
    }
  }
  if (def.aggregate == QueryAggregate::kDistinct) {
    for (const auto& [key, elems] : distinct) {
      counts[key] = elems.size();
    }
  }
  return counts;
}

FlowSet IdealQueryEngine::Evaluate(const QueryDef& def, Nanos start,
                                   Nanos end) const {
  FlowSet out;
  for (const auto& [key, v] : Aggregate(def, start, end)) {
    if (v >= def.threshold) out.insert(key);
  }
  return out;
}

}  // namespace ow
