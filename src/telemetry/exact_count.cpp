#include "src/telemetry/exact_count.h"

#include <algorithm>
#include <vector>

namespace ow {

void ExactCountApp::Update(const Packet& p, int region) {
  ++counts_[std::size_t(region)][p.Key(key_kind_)];
}

FlowRecord ExactCountApp::Query(const FlowKey& key, int region,
                                SubWindowNum subwindow) const {
  FlowRecord rec;
  rec.key = key;
  rec.num_attrs = 1;
  rec.subwindow = subwindow;
  const FlowCounts& counts = counts_[std::size_t(region)];
  const auto it = counts.find(key);
  rec.attrs[0] = it == counts.end() ? 0 : it->second;
  return rec;
}

void ExactCountApp::ResetSlice(int region, std::size_t) {
  counts_[std::size_t(region)].clear();
}

void ExactCountApp::SaveState(SnapshotWriter& w) {
  w.Section(snap::kApp);
  // Key order, not bucket order: bucket order follows the map's insertion
  // history, so a restored program would save different bytes from the
  // program that wrote it.
  std::vector<const FlowCounts::value_type*> sorted;
  for (const FlowCounts& counts : counts_) {
    sorted.clear();
    sorted.reserve(counts.size());
    for (const auto& entry : counts) sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w.Size(sorted.size());
    for (const auto* entry : sorted) {
      w.Pod(entry->first);
      w.U64(entry->second);
    }
  }
}

std::function<void()> ExactCountApp::DecodeState(SnapshotReader& r) {
  r.Section(snap::kApp);
  std::array<FlowCounts, 2> decoded;
  for (FlowCounts& counts : decoded) {
    const std::size_t n = r.Count(sizeof(FlowKey) + 8);
    counts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const FlowKey key = ReadFlowKey(r);
      counts[key] = r.U64();
    }
  }
  return [this, decoded = std::move(decoded)]() mutable {
    counts_.swap(decoded);
  };
}

}  // namespace ow
