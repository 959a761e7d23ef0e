#include "src/sketch/hashpipe.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ow {

HashPipe::HashPipe(std::size_t stages, std::size_t slots_per_stage,
                   std::uint64_t seed)
    : slots_(slots_per_stage), hashes_(stages, seed) {
  if (stages == 0 || slots_per_stage == 0) {
    throw std::invalid_argument("HashPipe: stages and slots must be > 0");
  }
  tables_.assign(stages, std::vector<Slot>(slots_per_stage));
}

HashPipe HashPipe::WithMemory(std::size_t memory_bytes, std::size_t stages,
                              std::uint64_t seed) {
  const std::size_t slots =
      std::max<std::size_t>(1, memory_bytes / (stages * kSlotBytes));
  return HashPipe(stages, slots, seed);
}

void HashPipe::Update(const FlowKey& key, std::uint64_t inc) {
  // Stage 1: always insert, evicting the resident entry.
  FlowKey carried_key = key;
  std::uint64_t carried_count = inc;
  {
    Slot& s = tables_[0][hashes_.Index(0, key, slots_)];
    if (s.occupied && s.key == key) {
      s.count += inc;
      return;
    }
    std::swap(carried_key, s.key);
    std::swap(carried_count, s.count);
    const bool was_occupied = s.occupied;
    s.occupied = true;
    if (!was_occupied) return;  // evicted nothing
  }
  // Later stages: merge on match, else keep the heavier entry.
  for (std::size_t st = 1; st < tables_.size(); ++st) {
    Slot& s = tables_[st][hashes_.Index(st, carried_key, slots_)];
    if (!s.occupied) {
      s.key = carried_key;
      s.count = carried_count;
      s.occupied = true;
      return;
    }
    if (s.key == carried_key) {
      s.count += carried_count;
      return;
    }
    if (carried_count > s.count) {
      std::swap(s.key, carried_key);
      std::swap(s.count, carried_count);
    }
  }
  // The lightest entry falls off the end of the pipe (HashPipe's inherent
  // undercount for evicted mice).
}

std::uint64_t HashPipe::Estimate(const FlowKey& key) const {
  std::uint64_t total = 0;
  for (std::size_t st = 0; st < tables_.size(); ++st) {
    const Slot& s = tables_[st][hashes_.Index(st, key, slots_)];
    if (s.occupied && s.key == key) total += s.count;
  }
  return total;
}

void HashPipe::Reset() {
  for (auto& table : tables_) {
    std::fill(table.begin(), table.end(), Slot{});
  }
}

PooledVector<FlowKey> HashPipe::Candidates() const {
  PooledUnorderedSet<FlowKey, FlowKeyHasher> seen;
  for (const auto& table : tables_) {
    for (const Slot& s : table) {
      if (s.occupied) seen.insert(s.key);
    }
  }
  return {seen.begin(), seen.end()};
}

}  // namespace ow
