#include "src/sketch/sliding_sketch.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ow {

SlidingScanPointer::SlidingScanPointer(std::size_t total_buckets,
                                       Nanos window_period)
    : total_(total_buckets), period_(window_period) {
  if (total_buckets == 0 || window_period <= 0) {
    throw std::invalid_argument("SlidingScanPointer: bad geometry/period");
  }
}

// ---------------------------------------------------------------- CountMin

SlidingCountMin::SlidingCountMin(std::size_t depth, std::size_t width,
                                 Nanos window_period, std::uint64_t seed)
    : width_(width),
      hashes_(depth, seed),
      rows_(depth, std::vector<Cell>(width)),
      scan_(depth * width, window_period) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("SlidingCountMin: depth and width must be > 0");
  }
}

void SlidingCountMin::AdvanceTo(Nanos now) {
  scan_.Advance(now, [this](std::size_t flat) {
    Cell& c = rows_[flat / width_][flat % width_];
    c.prev = c.cur;
    c.cur = 0;
  });
}

void SlidingCountMin::Update(const FlowKey& key, std::uint64_t inc,
                             Nanos now) {
  AdvanceTo(now);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i][hashes_.Index(i, key, width_)].cur += inc;
  }
}

std::uint64_t SlidingCountMin::Estimate(const FlowKey& key, Nanos now) {
  AdvanceTo(now);
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Cell& c = rows_[i][hashes_.Index(i, key, width_)];
    best = std::min(best, c.prev + c.cur);
  }
  return best == UINT64_MAX ? 0 : best;
}

void SlidingCountMin::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), Cell{});
}

// ------------------------------------------------------------------- SuMax

SlidingSuMax::SlidingSuMax(std::size_t depth, std::size_t width,
                           Nanos window_period, std::uint64_t seed)
    : width_(width),
      hashes_(depth, seed),
      rows_(depth, std::vector<Cell>(width)),
      scan_(depth * width, window_period) {
  if (depth == 0 || width == 0 || depth > 16) {
    throw std::invalid_argument("SlidingSuMax: bad geometry");
  }
}

void SlidingSuMax::AdvanceTo(Nanos now) {
  scan_.Advance(now, [this](std::size_t flat) {
    Cell& c = rows_[flat / width_][flat % width_];
    c.prev = c.cur;
    c.cur = 0;
  });
}

void SlidingSuMax::Update(const FlowKey& key, std::uint64_t inc, Nanos now) {
  AdvanceTo(now);
  std::size_t idx[16];
  std::uint64_t low = UINT64_MAX;
  const std::size_t d = rows_.size();
  for (std::size_t i = 0; i < d; ++i) {
    idx[i] = hashes_.Index(i, key, width_);
    low = std::min(low, rows_[i][idx[i]].cur);
  }
  const std::uint64_t bound = low + inc;
  for (std::size_t i = 0; i < d; ++i) {
    auto& c = rows_[i][idx[i]];
    c.cur = std::max(c.cur, bound);
  }
}

std::uint64_t SlidingSuMax::Estimate(const FlowKey& key, Nanos now) {
  AdvanceTo(now);
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Cell& c = rows_[i][hashes_.Index(i, key, width_)];
    best = std::min(best, c.prev + c.cur);
  }
  return best == UINT64_MAX ? 0 : best;
}

void SlidingSuMax::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), Cell{});
}

// --------------------------------------------------------------------- MV

SlidingMvSketch::SlidingMvSketch(std::size_t depth, std::size_t width,
                                 Nanos window_period, std::uint64_t seed)
    : width_(width),
      hashes_(depth, seed),
      rows_(depth, std::vector<Cell>(width)),
      scan_(depth * width, window_period) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("SlidingMvSketch: depth and width must be > 0");
  }
}

void SlidingMvSketch::MvUpdate(Zone& z, const FlowKey& key,
                               std::uint64_t inc) {
  z.total += inc;
  if (z.indicator == 0) {
    z.candidate = key;
    z.indicator = std::int64_t(inc);
  } else if (z.candidate == key) {
    z.indicator += std::int64_t(inc);
  } else {
    z.indicator -= std::int64_t(inc);
    if (z.indicator < 0) {
      z.candidate = key;
      z.indicator = -z.indicator;
    }
  }
}

std::uint64_t SlidingMvSketch::MvEstimate(const Zone& z, const FlowKey& key) {
  return z.candidate == key ? (z.total + std::uint64_t(z.indicator)) / 2
                            : (z.total - std::uint64_t(z.indicator)) / 2;
}

void SlidingMvSketch::AdvanceTo(Nanos now) {
  scan_.Advance(now, [this](std::size_t flat) {
    Cell& c = rows_[flat / width_][flat % width_];
    c.prev = c.cur;
    c.cur = Zone{};
  });
}

void SlidingMvSketch::Update(const FlowKey& key, std::uint64_t inc,
                             Nanos now) {
  AdvanceTo(now);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    MvUpdate(rows_[i][hashes_.Index(i, key, width_)].cur, key, inc);
  }
}

std::uint64_t SlidingMvSketch::Estimate(const FlowKey& key, Nanos now) {
  AdvanceTo(now);
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Cell& c = rows_[i][hashes_.Index(i, key, width_)];
    best = std::min(best, MvEstimate(c.prev, key) + MvEstimate(c.cur, key));
  }
  return best == UINT64_MAX ? 0 : best;
}

PooledVector<FlowKey> SlidingMvSketch::Candidates() const {
  PooledUnorderedSet<FlowKey, FlowKeyHasher> seen;
  for (const auto& row : rows_) {
    for (const Cell& c : row) {
      if (c.prev.total > 0) seen.insert(c.prev.candidate);
      if (c.cur.total > 0) seen.insert(c.cur.candidate);
    }
  }
  return {seen.begin(), seen.end()};
}

void SlidingMvSketch::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), Cell{});
}

}  // namespace ow
