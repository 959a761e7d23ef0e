// Hash family used by sketches, Bloom filters and flow tables.
//
// The Tofino data plane exposes CRC-based hash units; we model them with a
// seeded 64-bit mixer that is cheap, deterministic across platforms and has
// good avalanche behaviour. A HashFamily instance yields `k` pairwise
// independent-ish hash functions derived from one base seed, mirroring how a
// P4 program allocates `k` hash units with distinct polynomials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace ow {

class FlowKey;

/// SplitMix64 finaliser: bijective 64-bit mixer. Used as the avalanche step
/// of every hash in the repository.
constexpr std::uint64_t Mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Hash an arbitrary byte string with a seed. This is the single hashing
/// primitive; every data structure derives its functions from it.
std::uint64_t HashBytes(std::span<const std::uint8_t> data,
                        std::uint64_t seed) noexcept;

/// Convenience: hash a value's object representation. Types with padding
/// bytes are refused at compile time: two equal values could hash apart
/// when their padding differs (FiveTuple::Hash zeroes it instead).
template <typename T>
std::uint64_t HashValue(const T& v, std::uint64_t seed) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::has_unique_object_representations_v<T>,
                "HashValue would read padding bytes");
  return HashBytes(std::span(reinterpret_cast<const std::uint8_t*>(&v),
                             sizeof(T)),
                   seed);
}

/// A family of `k` seeded hash functions, standing in for the `k` hash units
/// a sketch instance occupies on the switch.
class HashFamily {
 public:
  HashFamily(std::size_t k, std::uint64_t base_seed);

  std::size_t size() const noexcept { return seeds_.size(); }

  /// Hash `data` with the `i`-th function of the family.
  std::uint64_t operator()(std::size_t i,
                           std::span<const std::uint8_t> data) const noexcept;

  /// Hash `data` with the `i`-th function, reduced to [0, range).
  std::size_t Index(std::size_t i, std::span<const std::uint8_t> data,
                    std::size_t range) const noexcept;

  /// The same two functions over a FlowKey's bytes, through the
  /// fixed-width FlowKey::HashRaw (defined inline in flowkey.h):
  /// `(*this)(i, key) == (*this)(i, key.bytes())`, likewise for Index.
  inline std::uint64_t operator()(std::size_t i,
                                  const FlowKey& key) const noexcept;
  inline std::size_t Index(std::size_t i, const FlowKey& key,
                           std::size_t range) const noexcept;

 private:
  /// Fixed-point multiply into [0, range): no modulo bias, no divide.
  static std::size_t Reduce(std::uint64_t h, std::size_t range) noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(h) * range) >> 64);
  }

  std::vector<std::uint64_t> seeds_;
};

}  // namespace ow
