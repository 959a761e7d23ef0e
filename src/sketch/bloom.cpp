#include "src/sketch/bloom.h"

#include <cmath>
#include <stdexcept>

#include "src/common/snapshot.h"

namespace ow {

BloomFilter::BloomFilter(std::size_t bits, std::size_t k, std::uint64_t seed)
    : bits_((bits + 63) / 64 * 64), hashes_(k, seed) {
  if (bits == 0 || k == 0) {
    throw std::invalid_argument("BloomFilter: bits and k must be > 0");
  }
  words_.resize(bits_ / 64, 0);
}

std::size_t BloomFilter::BitIndex(std::size_t i, const FlowKey& key) const {
  return hashes_.Index(i, key, bits_);
}

void BloomFilter::Insert(const FlowKey& key) {
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    const std::size_t b = BitIndex(i, key);
    words_[b / 64] |= (1ull << (b % 64));
  }
}

bool BloomFilter::Contains(const FlowKey& key) const {
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    const std::size_t b = BitIndex(i, key);
    if (!(words_[b / 64] & (1ull << (b % 64)))) return false;
  }
  return true;
}

bool BloomFilter::TestAndSet(const FlowKey& key) {
  bool present = true;
  for (std::size_t i = 0; i < hashes_.size(); ++i) {
    const std::size_t b = BitIndex(i, key);
    const std::uint64_t mask = 1ull << (b % 64);
    if (!(words_[b / 64] & mask)) present = false;
    words_[b / 64] |= mask;
  }
  return present;
}

void BloomFilter::Reset() {
  std::fill(words_.begin(), words_.end(), 0);
}

void BloomFilter::Save(SnapshotWriter& w) const {
  w.Section(snap::kBloom);
  w.PodVec(words_);
}

void BloomFilter::Load(SnapshotReader& r) {
  r.Section(snap::kBloom);
  const std::size_t words = words_.size();
  r.PodVec(words_);
  if (words_.size() != words) {
    throw SnapshotError("BloomFilter: snapshot has " +
                        std::to_string(words_.size() * 64) +
                        " bits, filter has " + std::to_string(bits_));
  }
}

double BloomFilter::ExpectedFpp(std::size_t n) const {
  const double k = double(hashes_.size());
  const double m = double(bits_);
  return std::pow(1.0 - std::exp(-k * double(n) / m), k);
}

}  // namespace ow
