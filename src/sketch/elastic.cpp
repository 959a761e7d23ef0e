#include "src/sketch/elastic.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ow {

ElasticSketch::ElasticSketch(std::size_t heavy_buckets,
                             std::size_t light_counters,
                             double eviction_ratio, std::uint64_t seed)
    : ratio_(eviction_ratio), hashes_(2, seed) {
  if (heavy_buckets == 0 || light_counters == 0 || eviction_ratio <= 0) {
    throw std::invalid_argument("ElasticSketch: bad geometry");
  }
  heavy_.resize(heavy_buckets);
  light_.resize(light_counters, 0);
}

ElasticSketch ElasticSketch::WithMemory(std::size_t memory_bytes,
                                        std::size_t /*depth_unused*/,
                                        std::uint64_t seed) {
  const std::size_t heavy_bytes = memory_bytes / 4;
  const std::size_t heavy =
      std::max<std::size_t>(1, heavy_bytes / kHeavyBucketBytes);
  const std::size_t light =
      std::max<std::size_t>(1, (memory_bytes - heavy_bytes) / 2);
  return ElasticSketch(heavy, light, 8.0, seed);
}

void ElasticSketch::LightAdd(const FlowKey& key, std::uint64_t inc) {
  auto& cell = light_[hashes_.Index(1, key, light_.size())];
  cell = std::uint16_t(std::min<std::uint64_t>(kLightMax, cell + inc));
}

std::uint64_t ElasticSketch::LightEstimate(const FlowKey& key) const {
  return light_[hashes_.Index(1, key, light_.size())];
}

void ElasticSketch::Update(const FlowKey& key, std::uint64_t inc) {
  Bucket& b = heavy_[hashes_.Index(0, key, heavy_.size())];
  if (!b.occupied) {
    b.key = key;
    b.pos = inc;
    b.neg = 0;
    b.occupied = true;
    b.ever_evicted = false;
    return;
  }
  if (b.key == key) {
    b.pos += inc;
    return;
  }
  b.neg += inc;
  if (double(b.neg) / double(std::max<std::uint64_t>(1, b.pos)) < ratio_) {
    // Vote lost: the packet goes to the light part.
    LightAdd(key, inc);
    return;
  }
  // Eviction: the resident's accumulated count moves to the light part and
  // the challenger takes the bucket (its earlier packets are already in
  // the light part, so flag it).
  LightAdd(b.key, b.pos);
  b.key = key;
  b.pos = inc;
  b.neg = 0;
  b.ever_evicted = true;
}

std::uint64_t ElasticSketch::Estimate(const FlowKey& key) const {
  const Bucket& b = heavy_[hashes_.Index(0, key, heavy_.size())];
  if (b.occupied && b.key == key) {
    return b.pos + (b.ever_evicted ? LightEstimate(key) : 0);
  }
  return LightEstimate(key);
}

void ElasticSketch::Reset() {
  std::fill(heavy_.begin(), heavy_.end(), Bucket{});
  std::fill(light_.begin(), light_.end(), 0);
}

PooledVector<FlowKey> ElasticSketch::Candidates() const {
  PooledUnorderedSet<FlowKey, FlowKeyHasher> seen;
  for (const Bucket& b : heavy_) {
    if (b.occupied) seen.insert(b.key);
  }
  return {seen.begin(), seen.end()};
}

}  // namespace ow
