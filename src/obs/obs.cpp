#include "src/obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace ow::obs {
namespace {

/// JSON string escaping for instrument names (which are plain identifiers
/// in practice, but the exporter must not emit malformed JSON regardless).
std::string Escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Relaxed atomic max.
void RaiseTo(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  std::uint64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < v &&
         !cell.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::Record(std::uint64_t v) noexcept {
  if constexpr (!kEnabled) {
    (void)v;
    return;
  }
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  RaiseTo(max_, v);
}

void Histogram::Merge(const LocalHistogram& local) noexcept {
  if constexpr (!kEnabled) {
    (void)local;
    return;
  }
  if (local.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    if (local.buckets_[i] != 0) {
      buckets_[i].fetch_add(local.buckets_[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(local.count_, std::memory_order_relaxed);
  sum_.fetch_add(local.sum_, std::memory_order_relaxed);
  RaiseTo(max_, local.max_);
}

std::uint64_t Histogram::Quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based.
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, std::uint64_t(std::ceil(q * double(total))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= rank) {
      // Upper edge of bucket i: 0 for i==0, else 2^i - 1.
      const std::uint64_t edge =
          i == 0 ? 0
                 : (i >= 64 ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << i) - 1);
      return std::min(edge, max());
    }
  }
  return max();
}

void Histogram::Reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void Registry::SetSpanCapacity(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  span_capacity_ = cap;
}

void Registry::RecordSpan(std::string_view name, std::uint64_t start_ns,
                          std::uint64_t dur_ns, std::uint32_t tid) {
  if (!tracing()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  it->second.Record(dur_ns);
  if (spans_.size() >= span_capacity_) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(SpanEvent{&it->first, tid, start_ns, dur_ns});
}

std::uint64_t Registry::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t Registry::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_dropped_;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, g] : gauges_) g.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
  spans_.clear();
  spans_dropped_ = 0;
}

void Registry::WriteStatsJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n  \"schema\": \"ow.obs.stats.v1\",\n";
  os << "  \"enabled\": " << (kEnabled ? "true" : "false") << ",\n";
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name)
       << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name)
       << "\": " << g.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << Escaped(name) << "\": {"
       << "\"count\": " << h.count() << ", \"sum\": " << h.sum()
       << ", \"max\": " << h.max() << ", \"p50\": " << h.Quantile(0.50)
       << ", \"p90\": " << h.Quantile(0.90)
       << ", \"p99\": " << h.Quantile(0.99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  os << "  \"spans_recorded\": " << spans_.size() << ",\n";
  os << "  \"spans_dropped\": " << spans_dropped_ << "\n}\n";
}

void Registry::WriteChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"otherData\": {\"schema\": \"ow.obs.trace.v1\", "
        "\"spans_dropped\": "
     << spans_dropped_ << "},\n\"displayTimeUnit\": \"ns\",\n";
  os << "\"traceEvents\": [";
  bool first = true;
  char buf[64];
  for (const SpanEvent& ev : spans_) {
    // Chrome trace timestamps are microseconds; keep ns precision with
    // three decimals.
    std::snprintf(buf, sizeof buf, "%.3f", double(ev.start_ns) / 1e3);
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << Escaped(*ev.name)
       << "\", \"cat\": \"ow\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << ev.tid << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", double(ev.dur_ns) / 1e3);
    os << ", \"dur\": " << buf << "}";
    first = false;
  }
  os << (first ? "" : "\n") << "]}\n";
}

bool Registry::DumpToFiles(const std::string& prefix) const {
  {
    std::ofstream stats(prefix + ".stats.json");
    if (!stats) return false;
    WriteStatsJson(stats);
    if (!stats) return false;
  }
  {
    std::ofstream trace(prefix + ".trace.json");
    if (!trace) return false;
    WriteChromeTrace(trace);
    if (!trace) return false;
  }
  return true;
}

Registry& Global() {
  static Registry registry;
  return registry;
}

std::uint64_t NowNs() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - epoch)
                           .count());
}

std::uint32_t ThreadTag() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag =
      next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

}  // namespace ow::obs
