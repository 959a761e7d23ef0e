// Flow identifiers.
//
// Telemetry applications define their own flow key (paper §4.1): heavy-hitter
// detection keys on the five-tuple, DDoS detection on the destination IP,
// super-spreader detection on the source IP, and so on. FlowKey is a compact
// tagged value type that covers every key definition used by Q1–Q11 while
// remaining trivially hashable and usable as a map key.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "src/common/hash.h"

namespace ow {

/// Classic 5-tuple in host byte order. `proto` follows IANA numbers
/// (6 = TCP, 17 = UDP).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  /// HashBytes over the object's 16-byte image with its 3 padding bytes
  /// zeroed, so tuples equal under operator== hash equal whatever their
  /// padding holds (an assigned temporary may carry stack bytes there).
  /// Whenever the padding already was zero, these are the bytes hashing
  /// the raw object would read.
  std::uint64_t Hash(std::uint64_t seed) const noexcept {
    std::uint8_t img[sizeof(FiveTuple)] = {};
    std::memcpy(img + offsetof(FiveTuple, src_ip), &src_ip, sizeof src_ip);
    std::memcpy(img + offsetof(FiveTuple, dst_ip), &dst_ip, sizeof dst_ip);
    std::memcpy(img + offsetof(FiveTuple, src_port), &src_port,
                sizeof src_port);
    std::memcpy(img + offsetof(FiveTuple, dst_port), &dst_port,
                sizeof dst_port);
    img[offsetof(FiveTuple, proto)] = proto;
    return HashBytes(img, seed);
  }

  /// Human-readable "a.b.c.d:p -> a.b.c.d:p/proto".
  std::string ToString() const;
};

/// Which fields of the five-tuple a FlowKey retains.
enum class FlowKeyKind : std::uint8_t {
  kFiveTuple = 0,   ///< full 5-tuple
  kSrcIp = 1,       ///< source address only
  kDstIp = 2,       ///< destination address only
  kIpPair = 3,      ///< (src, dst) addresses
  kSrcIpDstPort = 4 ///< (src ip, dst port) — used by port-scan detection
};

/// Compact tagged flow key. 16 bytes, trivially copyable, totally ordered.
class FlowKey {
 public:
  FlowKey() = default;

  /// Project `t` onto the fields selected by `kind`.
  FlowKey(FlowKeyKind kind, const FiveTuple& t);

  /// Reconstruct a key from its raw material (wire decoding).
  static FlowKey FromRaw(FlowKeyKind kind,
                         std::span<const std::uint8_t> bytes);

  FlowKeyKind kind() const noexcept { return kind_; }

  /// Raw key material (projection-dependent length, zero padded).
  std::span<const std::uint8_t> bytes() const noexcept {
    return {bytes_.data(), len_};
  }

  /// Exactly HashBytes(bytes(), seed), from two fixed 8-byte loads instead
  /// of a length-dependent copy: bytes [0, 8), and bytes [5, 13) shifted
  /// down to [8, 13). Both loads stay inside bytes_ (sizeof(FlowKey) is 15,
  /// so a 16-byte load would run past the object). The lanes equal
  /// HashBytes' zero-extended tail only because every byte past len_ is
  /// zero: the invariant WellFormed states and CheckFlowKey enforces on
  /// decoded keys.
  std::uint64_t HashRaw(std::uint64_t seed) const noexcept {
    std::uint64_t lo;
    std::uint64_t hi;
    std::memcpy(&lo, bytes_.data(), 8);
    std::memcpy(&hi, bytes_.data() + 5, 8);
    if constexpr (std::endian::native == std::endian::little) {
      hi >>= 24;
    } else {
      hi <<= 24;
    }
    const std::uint64_t n = len_;
    std::uint64_t h = seed ^ (n * 0x9E3779B97F4A7C15ull);
    if (n > 8) {
      h = Mix64(h ^ lo);
      h = Mix64(h ^ hi ^ ((n - 8) << 56));
    } else if (n == 8) {
      h = Mix64(h ^ lo);
    } else if (n > 0) {
      h = Mix64(h ^ lo ^ (n << 56));
    }
    return Mix64(h);
  }

  std::uint64_t Hash(std::uint64_t seed) const noexcept {
    return HashRaw(seed ^ static_cast<std::uint64_t>(kind_));
  }

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

  /// True when the invariants every constructor keeps hold: a named kind,
  /// a length within bytes_, and zeros past it (operator<=> compares the
  /// padding). Keys decoded from untrusted bytes must pass this before use
  /// (snapshot ReadFlowKey).
  bool WellFormed() const noexcept;

  std::string ToString() const;

  // --- field accessors (valid only for kinds that retain the field) ---
  std::uint32_t src_ip() const noexcept;
  std::uint32_t dst_ip() const noexcept;

 private:
  std::array<std::uint8_t, 13> bytes_{};
  std::uint8_t len_ = 0;
  FlowKeyKind kind_ = FlowKeyKind::kFiveTuple;
};

static_assert(sizeof(FlowKey) <= 16);

inline std::uint64_t HashFamily::operator()(
    std::size_t i, const FlowKey& key) const noexcept {
  return key.HashRaw(seeds_[i]);
}

inline std::size_t HashFamily::Index(std::size_t i, const FlowKey& key,
                                     std::size_t range) const noexcept {
  return Reduce(key.HashRaw(seeds_[i]), range);
}

/// std::unordered_map-compatible hasher.
struct FlowKeyHasher {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<std::size_t>(k.Hash(0x0F0E0D0C0B0A0908ull));
  }
};

struct FiveTupleHasher {
  std::size_t operator()(const FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(t.Hash(0x1234ABCD5678EF09ull));
  }
};

}  // namespace ow
