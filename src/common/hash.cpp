#include "src/common/hash.h"

#include <cstring>

namespace ow {

std::uint64_t HashBytes(std::span<const std::uint8_t> data,
                        std::uint64_t seed) noexcept {
  // xxhash-style streaming over 8-byte lanes with a SplitMix finaliser.
  std::uint64_t h = seed ^ (data.size() * 0x9E3779B97F4A7C15ull);
  std::size_t i = 0;
  while (i + 8 <= data.size()) {
    std::uint64_t lane;
    std::memcpy(&lane, data.data() + i, 8);
    h = Mix64(h ^ lane);
    i += 8;
  }
  std::uint64_t tail = 0;
  std::size_t rem = data.size() - i;
  if (rem > 0) {
    std::memcpy(&tail, data.data() + i, rem);
    h = Mix64(h ^ tail ^ (static_cast<std::uint64_t>(rem) << 56));
  }
  return Mix64(h);
}

HashFamily::HashFamily(std::size_t k, std::uint64_t base_seed) {
  seeds_.reserve(k);
  std::uint64_t s = base_seed;
  for (std::size_t i = 0; i < k; ++i) {
    s = Mix64(s + 0xA5A5A5A5A5A5A5A5ull);
    seeds_.push_back(s);
  }
}

std::uint64_t HashFamily::operator()(
    std::size_t i, std::span<const std::uint8_t> data) const noexcept {
  return HashBytes(data, seeds_[i]);
}

std::size_t HashFamily::Index(std::size_t i,
                              std::span<const std::uint8_t> data,
                              std::size_t range) const noexcept {
  return Reduce((*this)(i, data), range);
}

}  // namespace ow
