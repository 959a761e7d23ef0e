#include "src/sketch/mv_sketch.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ow {

MvSketch::MvSketch(std::size_t depth, std::size_t width, std::uint64_t seed)
    : width_(width), hashes_(depth, seed) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("MvSketch: depth and width must be > 0");
  }
  rows_.assign(depth, std::vector<Bucket>(width));
}

MvSketch MvSketch::WithMemory(std::size_t memory_bytes, std::size_t depth,
                              std::uint64_t seed) {
  const std::size_t width =
      std::max<std::size_t>(1, memory_bytes / (depth * kBucketBytes));
  return MvSketch(depth, width, seed);
}

void MvSketch::Update(const FlowKey& key, std::uint64_t inc) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Bucket& b = rows_[i][hashes_.Index(i, key, width_)];
    b.total += inc;
    if (b.indicator == 0) {
      b.candidate = key;
      b.indicator = std::int64_t(inc);
    } else if (b.candidate == key) {
      b.indicator += std::int64_t(inc);
    } else {
      b.indicator -= std::int64_t(inc);
      if (b.indicator < 0) {
        b.candidate = key;
        b.indicator = -b.indicator;
      }
    }
  }
}

std::uint64_t MvSketch::Estimate(const FlowKey& key) const {
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Bucket& b = rows_[i][hashes_.Index(i, key, width_)];
    // MV-Sketch point estimate: (V + C) / 2 if the bucket votes for this
    // key, (V - C) / 2 otherwise.
    const std::uint64_t est =
        b.candidate == key
            ? (b.total + std::uint64_t(b.indicator)) / 2
            : (b.total - std::uint64_t(b.indicator)) / 2;
    best = std::min(best, est);
  }
  return best == UINT64_MAX ? 0 : best;
}

void MvSketch::Reset() {
  for (auto& row : rows_) {
    std::fill(row.begin(), row.end(), Bucket{});
  }
}

PooledVector<FlowKey> MvSketch::Candidates() const {
  PooledUnorderedSet<FlowKey, FlowKeyHasher> seen;
  for (const auto& row : rows_) {
    for (const Bucket& b : row) {
      if (b.total > 0) seen.insert(b.candidate);
    }
  }
  return {seen.begin(), seen.end()};
}

}  // namespace ow
