#include "perfbench/src/bench_math.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

bool PercentileHasTail(std::size_t n, double p) {
  // Samples strictly above the p-th percentile: n * (1 - p/100), taken
  // with a small epsilon so that 100 samples do carry a p90.
  return double(n) * (100.0 - p) / 100.0 + 1e-9 >= 10.0;
}

std::size_t ExpectedWindowsPerSwitch(ow::Nanos first_ts, ow::Nanos last_ts,
                                     const ow::WindowSpec& spec) {
  if (last_ts < first_ts) return 0;
  const ow::Nanos sub = spec.subwindow_size;
  const ow::Nanos epoch = first_ts - first_ts % sub;
  const std::size_t subwindows = std::size_t((last_ts - epoch) / sub) + 1;
  const std::size_t per_window = spec.SubWindowsPerWindow();
  const std::size_t per_slide = spec.SubWindowsPerSlide();
  if (subwindows < per_window) return 0;
  return (subwindows - per_window) / per_slide + 1;
}

Recount::Recount(const ow::Trace& trace, const ow::WindowSpec& spec,
                 ow::FlowKeyKind kind, const ow::FlowkeyTrackerConfig& tracker) {
  if (trace.packets.empty()) return;
  const ow::Nanos sub = spec.subwindow_size;
  const ow::Nanos first = trace.packets.front().ts;
  const ow::Nanos epoch = first - first % sub;
  const std::size_t n = std::size_t((trace.packets.back().ts - epoch) / sub) + 1;
  sub_.resize(n);
  lost_.resize(n);
  ow::FlowkeyTracker model(tracker);
  std::size_t current = n;  // sub-window the model's region was reset for
  for (const ow::Packet& p : trace.packets) {
    const std::size_t i = std::size_t((p.ts - epoch) / sub);
    const int region = int(i % 2);
    if (i != current) {
      model.Reset(region);
      current = i;
    }
    const ow::FlowKey key = p.Key(kind);
    const bool first_in_subwindow = !sub_[i].contains(key);
    ++sub_[i][key];
    if (model.Track(region, key) == ow::FlowkeyTracker::Outcome::kSeen &&
        first_in_subwindow) {
      lost_[i].insert(key);
    }
  }
}

ow::FlowCounts Recount::Sum(ow::SubWindowSpan span, bool drop_lost) const {
  // Sub-windows past the trace's last packet hold no trace packets.
  ow::FlowCounts out;
  for (ow::SubWindowNum n = span.first; n <= span.last && n < sub_.size(); ++n) {
    for (const auto& [key, count] : sub_[n]) {
      if (!drop_lost || !lost_[n].contains(key)) out[key] += count;
    }
  }
  return out;
}

ow::FlowCounts Recount::Window(ow::SubWindowSpan span) const {
  return Sum(span, false);
}

ow::FlowCounts Recount::Reported(ow::SubWindowSpan span) const {
  return Sum(span, true);
}

CountError CompareCounts(const ow::FlowCounts& got,
                         const ow::FlowCounts& want) {
  CountError e;
  for (const auto& [key, w] : want) {
    e.want += w;
    const auto it = got.find(key);
    const std::uint64_t g = it == got.end() ? 0 : it->second;
    e.abs_err += g > w ? g - w : w - g;
  }
  for (const auto& [key, g] : got) {
    if (!want.contains(key)) e.abs_err += g;
  }
  return e;
}

double ErrorPpm(const CountError& e) {
  return e.want == 0 ? 0.0 : double(e.abs_err) * 1e6 / double(e.want);
}

std::uint64_t DigestEntry(const ow::FlowKey& key, std::uint64_t count) {
  // SplitMix64 finaliser over (key hash, count): a plain sum of key hashes
  // would let two count errors of opposite sign cancel.
  std::uint64_t z = key.Hash(0xD16E57ull) + count * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t SelfTimeNs(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // end of the covered prefix so far
  for (const Interval& c : children) {
    const std::uint64_t s = std::max(c.start, reach);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace perfbench
