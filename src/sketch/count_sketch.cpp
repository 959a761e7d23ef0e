#include "src/sketch/count_sketch.h"

#include <algorithm>
#include <stdexcept>

namespace ow {

CountSketch::CountSketch(std::size_t depth, std::size_t width,
                         std::uint64_t seed)
    : width_(width), hashes_(depth, seed), signs_(depth, Mix64(seed)) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("CountSketch: depth and width must be > 0");
  }
  rows_.assign(depth, std::vector<std::int64_t>(width, 0));
}

CountSketch CountSketch::WithMemory(std::size_t memory_bytes,
                                    std::size_t depth, std::uint64_t seed) {
  const std::size_t width = std::max<std::size_t>(1, memory_bytes / (depth * 8));
  return CountSketch(depth, width, seed);
}

std::int64_t CountSketch::Sign(std::size_t row, const FlowKey& key) const {
  return (signs_(row, key) & 1) ? 1 : -1;
}

void CountSketch::Update(const FlowKey& key, std::uint64_t inc) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i][hashes_.Index(i, key, width_)] +=
        Sign(i, key) * std::int64_t(inc);
  }
}

std::uint64_t CountSketch::Estimate(const FlowKey& key) const {
  std::vector<std::int64_t> ests;
  ests.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    ests.push_back(Sign(i, key) *
                   rows_[i][hashes_.Index(i, key, width_)]);
  }
  std::nth_element(ests.begin(), ests.begin() + ests.size() / 2, ests.end());
  const std::int64_t median = ests[ests.size() / 2];
  return median > 0 ? std::uint64_t(median) : 0;
}

void CountSketch::Reset() {
  for (auto& row : rows_) std::fill(row.begin(), row.end(), 0);
}

}  // namespace ow
