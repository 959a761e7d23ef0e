#include "src/sketch/vector_bloom.h"

#include "src/sketch/signature.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ow {

VectorBloomFilter::VectorBloomFilter(std::size_t arrays,
                                     std::size_t bitmaps_per_array,
                                     std::size_t bits_per_bitmap,
                                     std::uint64_t seed)
    : bitmaps_(bitmaps_per_array),
      bits_((bits_per_bitmap + 63) / 64 * 64),
      hashes_(arrays, seed) {
  if (arrays == 0 || bitmaps_per_array == 0 || bits_per_bitmap == 0) {
    throw std::invalid_argument("VectorBloomFilter: empty geometry");
  }
  arrays_.assign(arrays,
                 std::vector<std::vector<std::uint64_t>>(
                     bitmaps_, std::vector<std::uint64_t>(bits_ / 64, 0)));
}

VectorBloomFilter VectorBloomFilter::WithMemory(std::size_t memory_bytes,
                                                std::size_t arrays,
                                                std::uint64_t seed) {
  constexpr std::size_t kBits = 64;
  const std::size_t bitmaps =
      std::max<std::size_t>(1, memory_bytes / (arrays * kBits / 8));
  return VectorBloomFilter(arrays, bitmaps, kBits, seed);
}

void VectorBloomFilter::Update(const FlowKey& key,
                               std::uint64_t element_hash) {
  const std::size_t bit = static_cast<std::size_t>(Mix64(element_hash) % bits_);
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    auto& bitmap = arrays_[i][hashes_.Index(i, key, bitmaps_)];
    bitmap[bit / 64] |= 1ull << (bit % 64);
  }
}

double VectorBloomFilter::LinearCount(
    const std::vector<std::uint64_t>& words) const {
  std::size_t set = 0;
  for (std::uint64_t w : words) set += std::popcount(w);
  const double m = double(bits_);
  const double z = m - double(set);
  if (z <= 0.5) return m * std::log(2 * m);  // saturated
  return m * std::log(m / z);
}

double VectorBloomFilter::EstimateSpread(const FlowKey& key) const {
  double best = -1;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const double est =
        LinearCount(arrays_[i][hashes_.Index(i, key, bitmaps_)]);
    if (best < 0 || est < best) best = est;
  }
  return best < 0 ? 0 : best;
}

SpreadSignature VectorBloomFilter::Signature(const FlowKey& key) const {
  double best = -1;
  const std::vector<std::uint64_t>* best_bitmap = nullptr;
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    const auto& bitmap = arrays_[i][hashes_.Index(i, key, bitmaps_)];
    const double est = LinearCount(bitmap);
    if (best < 0 || est < best) {
      best = est;
      best_bitmap = &bitmap;
    }
  }
  SpreadSignature sig{};
  if (best_bitmap) {
    for (std::size_t i = 0; i < 4 && i < best_bitmap->size(); ++i) {
      sig[i] = (*best_bitmap)[i];
    }
  }
  return sig;
}

double VectorBloomFilter::EstimateFromSignature(
    const SpreadSignature& sig) const {
  return LcSignatureEstimate(sig);
}

void VectorBloomFilter::Reset() {
  for (auto& arr : arrays_) {
    for (auto& bitmap : arr) std::fill(bitmap.begin(), bitmap.end(), 0);
  }
}

}  // namespace ow
