// Exact per-flow packet counter — a ground-truth measurement instrument.
//
// QueryAdapter executes against hash-indexed cells deliberately WITHOUT
// collision handling, because the paper attributes OmniWindow's residual
// error to exactly that property of Sonata's stateful operators. That is the
// right model for evaluating the window mechanism, but the wrong instrument
// for network-wide flow-conservation queries: a hash-cell collision present
// at one switch and absent at another reads as phantom loss (or phantom
// gain) on the link between them, and the per-link differencing in
// LocalizeFlowLoss amplifies it. ExactCountApp keeps one exact map per
// memory region, so any count difference between two consistent windows is
// real traffic, not measurement error.
#pragma once

#include <array>
#include <string>

#include "src/common/metrics.h"
#include "src/core/adapter.h"

namespace ow {

class ExactCountApp final : public TelemetryAppAdapter {
 public:
  explicit ExactCountApp(FlowKeyKind key_kind = FlowKeyKind::kFiveTuple)
      : key_kind_(key_kind) {}

  std::string name() const override { return "exact_count"; }
  FlowKeyKind key_kind() const override { return key_kind_; }
  MergeKind merge_kind() const override { return MergeKind::kFrequency; }

  void Update(const Packet& p, int region) override;
  FlowRecord Query(const FlowKey& key, int region,
                   SubWindowNum subwindow) const override;
  void ResetSlice(int region, std::size_t index) override;
  /// The whole map clears in one pass: a single logical slice.
  std::size_t NumResetSlices() const override { return 1; }

  /// Exact maps live outside register arrays, so checkpointing serializes
  /// them entry-by-entry, sorted by key: save -> load -> save reproduces
  /// the bytes. Decoding accepts any entry order (lookups never iterate).
  void SaveState(SnapshotWriter& w) override;
  std::function<void()> DecodeState(SnapshotReader& r) override;

 private:
  FlowKeyKind key_kind_;
  std::array<FlowCounts, 2> counts_;
};

}  // namespace ow
