#include "src/sketch/sumax.h"

#include <algorithm>
#include <stdexcept>

namespace ow {

SuMaxSketch::SuMaxSketch(std::size_t depth, std::size_t width,
                         std::uint64_t seed)
    : width_(width), hashes_(depth, seed) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("SuMaxSketch: depth and width must be > 0");
  }
  if (depth > 16) {
    throw std::invalid_argument("SuMaxSketch: depth must be <= 16");
  }
  rows_.assign(depth, std::vector<std::uint64_t>(width, 0));
}

SuMaxSketch SuMaxSketch::WithMemory(std::size_t memory_bytes,
                                    std::size_t depth, std::uint64_t seed) {
  const std::size_t width = std::max<std::size_t>(1, memory_bytes / (depth * 8));
  return SuMaxSketch(depth, width, seed);
}

void SuMaxSketch::Update(const FlowKey& key, std::uint64_t inc) {
  // Conservative update ("SuMax" rule): the new lower bound for the flow is
  // min(counters) + inc; each counter only grows up to that bound.
  std::uint64_t low = UINT64_MAX;
  std::size_t idx[16];
  const std::size_t d = rows_.size();
  for (std::size_t i = 0; i < d; ++i) {
    idx[i] = hashes_.Index(i, key, width_);
    low = std::min(low, rows_[i][idx[i]]);
  }
  const std::uint64_t bound = low + inc;
  for (std::size_t i = 0; i < d; ++i) {
    rows_[i][idx[i]] = std::max(rows_[i][idx[i]], bound);
  }
}

std::uint64_t SuMaxSketch::Estimate(const FlowKey& key) const {
  std::uint64_t best = UINT64_MAX;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    best = std::min(best, rows_[i][hashes_.Index(i, key, width_)]);
  }
  return best == UINT64_MAX ? 0 : best;
}

void SuMaxSketch::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), 0);
}

}  // namespace ow
