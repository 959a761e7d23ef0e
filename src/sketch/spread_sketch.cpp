#include "src/sketch/spread_sketch.h"

#include "src/sketch/signature.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace ow {

MultiResolutionBitmap::MultiResolutionBitmap(std::size_t levels,
                                             std::size_t bits_per_level)
    : bits_((bits_per_level + 63) / 64 * 64) {
  if (levels == 0 || bits_per_level == 0) {
    throw std::invalid_argument("MultiResolutionBitmap: empty geometry");
  }
  levels_.assign(levels, std::vector<std::uint64_t>(bits_ / 64, 0));
}

std::size_t MultiResolutionBitmap::Insert(std::uint64_t element_hash) {
  // Level = number of leading zeros of the hash, capped at the top level
  // (geometric sampling: level l holds elements with probability 2^-(l+1),
  // the last level catches the remainder).
  std::size_t level = std::min<std::size_t>(
      std::countl_zero(element_hash | 1ull), levels_.size() - 1);
  // Bit position derived from the low bits so it is independent of level
  // selection.
  const std::size_t bit =
      static_cast<std::size_t>(Mix64(element_hash) % bits_);
  levels_[level][bit / 64] |= 1ull << (bit % 64);
  return level;
}

std::size_t MultiResolutionBitmap::SetBits(std::size_t level) const {
  std::size_t n = 0;
  for (std::uint64_t w : levels_[level]) n += std::popcount(w);
  return n;
}

double MultiResolutionBitmap::Estimate() const {
  // Choose the lowest ("base") level that is not saturated, linear-count it
  // and the levels above it, then scale by the base level's sampling rate.
  const double m = double(bits_);
  const std::size_t sat = std::size_t(m * 0.93);
  std::size_t base = 0;
  while (base + 1 < levels_.size() && SetBits(base) > sat) ++base;
  double total = 0;
  for (std::size_t l = base; l < levels_.size(); ++l) {
    const std::size_t set = SetBits(l);
    if (set == 0) continue;
    const double z = m - double(set);
    // Linear counting with a saturation guard.
    const double count = z <= 0.5 ? m * std::log(2 * m) : m * std::log(m / z);
    total += count;
  }
  // Levels below `base` were skipped; they hold a 1 - 2^-base fraction of
  // elements, so scale up by 2^base.
  return total * std::pow(2.0, double(base));
}

SpreadSignature MultiResolutionBitmap::Fold4() const {
  SpreadSignature sig{};
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::size_t word = std::min<std::size_t>(l, 3);
    for (std::uint64_t w : levels_[l]) sig[word] |= w;
  }
  return sig;
}

void MultiResolutionBitmap::Reset() {
  for (auto& level : levels_) std::fill(level.begin(), level.end(), 0);
}

SpreadSketch::SpreadSketch(std::size_t depth, std::size_t width,
                           std::size_t mrb_levels, std::size_t mrb_bits,
                           std::uint64_t seed)
    : width_(width), hashes_(depth, seed) {
  if (depth == 0 || width == 0) {
    throw std::invalid_argument("SpreadSketch: depth and width must be > 0");
  }
  rows_.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) {
    std::vector<Bucket> row;
    row.reserve(width);
    for (std::size_t j = 0; j < width; ++j) {
      row.emplace_back(mrb_levels, mrb_bits);
    }
    rows_.push_back(std::move(row));
  }
}

SpreadSketch SpreadSketch::WithMemory(std::size_t memory_bytes,
                                      std::size_t depth, std::uint64_t seed) {
  constexpr std::size_t kLevels = 8, kBits = 64;
  constexpr std::size_t kBucketBytes = kLevels * kBits / 8 + 16 + 4;
  const std::size_t width =
      std::max<std::size_t>(1, memory_bytes / (depth * kBucketBytes));
  return SpreadSketch(depth, width, kLevels, kBits, seed);
}

void SpreadSketch::Update(const FlowKey& key, std::uint64_t element_hash) {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    Bucket& b = rows_[i][hashes_.Index(i, key, width_)];
    const std::size_t level = b.mrb.Insert(element_hash);
    if (std::int32_t(level) >= b.level) {
      b.level = std::int32_t(level);
      b.candidate = key;
    }
  }
}

double SpreadSketch::EstimateSpread(const FlowKey& key) const {
  double best = -1;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Bucket& b = rows_[i][hashes_.Index(i, key, width_)];
    const double est = b.mrb.Estimate();
    if (best < 0 || est < best) best = est;
  }
  return best < 0 ? 0 : best;
}

SpreadSignature SpreadSketch::Signature(const FlowKey& key) const {
  double best = -1;
  const MultiResolutionBitmap* best_mrb = nullptr;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Bucket& b = rows_[i][hashes_.Index(i, key, width_)];
    const double est = b.mrb.Estimate();
    if (best < 0 || est < best) {
      best = est;
      best_mrb = &b.mrb;
    }
  }
  return best_mrb ? best_mrb->Fold4() : SpreadSignature{};
}

double SpreadSketch::EstimateFromSignature(const SpreadSignature& sig) const {
  return MrbSignatureEstimate(sig);
}

void SpreadSketch::Reset() {
  for (auto& row : rows_) {
    for (Bucket& b : row) {
      b.mrb.Reset();
      b.level = -1;
      b.candidate = FlowKey();
    }
  }
}

PooledVector<FlowKey> SpreadSketch::Candidates() const {
  PooledUnorderedSet<FlowKey, FlowKeyHasher> seen;
  for (const auto& row : rows_) {
    for (const Bucket& b : row) {
      if (b.level >= 0) seen.insert(b.candidate);
    }
  }
  return {seen.begin(), seen.end()};
}

std::size_t SpreadSketch::MemoryBytes() const {
  if (rows_.empty() || rows_[0].empty()) return 0;
  const std::size_t per_bucket = rows_[0][0].mrb.MemoryBytes() + 16 + 4;
  return rows_.size() * width_ * per_bucket;
}

}  // namespace ow
