#include "src/sketch/count_min.h"

#include <algorithm>
#include <stdexcept>

namespace ow {

CountMinSketch::CountMinSketch(std::size_t depth, std::size_t width,
                               std::uint64_t seed)
    : width_(width), hashes_(depth, seed) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("CountMinSketch: depth and width must be > 0");
  }
  rows_.assign(depth, std::vector<std::uint64_t>(width, 0));
}

CountMinSketch CountMinSketch::WithMemory(std::size_t memory_bytes,
                                          std::size_t depth,
                                          std::uint64_t seed) {
  const std::size_t width = std::max<std::size_t>(1, memory_bytes / (depth * 8));
  return CountMinSketch(depth, width, seed);
}

void CountMinSketch::Update(const FlowKey& key, std::uint64_t inc) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i][hashes_.Index(i, key, width_)] += inc;
  }
}

std::uint64_t CountMinSketch::Estimate(const FlowKey& key) const {
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    best = std::min(best, rows_[i][hashes_.Index(i, key, width_)]);
  }
  return best == UINT64_MAX ? 0 : best;
}

void CountMinSketch::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), 0);
}

void CountMinSketch::MergeFrom(const CountMinSketch& other) {
  if (other.depth() != depth() || other.width() != width()) {
    throw std::invalid_argument("CountMinSketch::MergeFrom: geometry mismatch");
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    for (std::size_t j = 0; j < width_; ++j) {
      rows_[i][j] += other.rows_[i][j];
    }
  }
}

}  // namespace ow
