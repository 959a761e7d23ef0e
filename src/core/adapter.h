// Telemetry application adapter.
//
// OmniWindow is a window FRAMEWORK: the measurement logic itself belongs to
// the telemetry application (a Sonata query, a sketch instance, ...). This
// interface is the contract between the framework and the application, and
// mirrors what the paper requires of integrable applications (§4.1,
// "feasibility analysis"): a flowkey definition, a data-plane point query
// used to derive AFRs, and per-slice state reset for clear packets. The
// application maintains its state twice — once per shared memory region —
// and every call names the region it targets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/packet.h"
#include "src/common/snapshot.h"
#include "src/controller/merge.h"
#include "src/switchsim/register_array.h"
#include "src/switchsim/resources.h"

namespace ow {

class TelemetryAppAdapter {
 public:
  virtual ~TelemetryAppAdapter() = default;

  virtual std::string name() const = 0;

  /// The application's flowkey definition.
  virtual FlowKeyKind key_kind() const = 0;

  /// How the controller merges this app's AFRs across sub-windows.
  virtual MergeKind merge_kind() const = 0;

  /// Data-plane update: fold one packet into the region's state.
  virtual void Update(const Packet& p, int region) = 0;

  /// Data-plane flow query: derive the AFR of `key` from the region's
  /// state. `subwindow` is stamped into the record.
  virtual FlowRecord Query(const FlowKey& key, int region,
                           SubWindowNum subwindow) const = 0;

  /// In-switch reset, one clear-packet pass: zero slice `index` of the
  /// region's state. A "slice" is one position across all of the app's
  /// register arrays — a single clear packet resets the same position of
  /// every register in one pipeline pass (§4.3).
  virtual void ResetSlice(int region, std::size_t index) = 0;

  /// Number of slices a full region reset needs (the largest register
  /// array's entry count).
  virtual std::size_t NumResetSlices() const = 0;

  /// Whether the application tracks candidate keys itself (MV-Sketch,
  /// HashPipe). If true, the framework skips its own flowkey tracking and
  /// enumerates TrackedKeys() instead.
  virtual bool TracksOwnKeys() const { return false; }
  virtual PooledVector<FlowKey> TrackedKeys(int region) const {
    (void)region;
    return {};
  }

  /// Whether the data plane can answer Query() (§8: FlowRadar/NZE-style
  /// apps cannot; they use whole-state migration instead).
  virtual bool SupportsAfr() const { return true; }

  /// State-migration path (§8, "Merging intermediate data without AFRs"):
  /// instead of per-flow AFRs, the recirculating collection packets
  /// enumerate raw state SLICES. Each slice is returned as a FlowRecord
  /// whose key encodes the slice index and whose attrs carry up to four
  /// state words; the controller merges slices across sub-windows with
  /// this app's merge_kind() (kMax for HLL registers, kDistinction/OR for
  /// bitmap words, ...). Only called when SupportsAfr() is false; the
  /// number of slices is NumResetSlices().
  virtual FlowRecord MigrateSlice(int region, std::size_t index,
                                  SubWindowNum subwindow) const {
    (void)region;
    (void)index;
    FlowRecord rec;
    rec.subwindow = subwindow;
    return rec;
  }

  /// Charge the app's own data-plane footprint (Exp#5 reports framework
  /// features separately from the app, but the app must fit too).
  virtual void ChargeResources(ResourceLedger& ledger) const {
    (void)ledger;
  }

  /// Register arrays backing this app's state, so the pipeline can arm the
  /// one-SALU-access-per-pass check before every packet. Apps modelled on
  /// plain memory (the sketch wrappers) return empty. Callers driving an
  /// adapter directly (outside a Switch) must call BeginPass() themselves.
  virtual std::vector<RegisterArray*> Registers() { return {}; }

  /// Checkpoint the app's measurement state. The default implementation
  /// serializes every register array from Registers(), which covers any
  /// register-backed app; apps on plain memory must override BOTH SaveState
  /// and DecodeState or checkpointing fails loudly (a silent no-op here
  /// would restore an empty app and corrupt every window after the restore
  /// point).
  virtual void SaveState(SnapshotWriter& w) {
    w.Section(snap::kApp);
    std::vector<RegisterArray*> regs = Registers();
    if (regs.empty()) ThrowNoCheckpoint();
    w.Size(regs.size());
    for (RegisterArray* reg : regs) reg->Save(w);
  }

  /// Decode a SaveState checkpoint without touching the app, and return
  /// the action that installs it; that action cannot throw. LoadState runs
  /// both; OmniWindowProgram::Load installs only once its whole section has
  /// decoded, so a throw leaves the app unchanged.
  virtual std::function<void()> DecodeState(SnapshotReader& r) {
    r.Section(snap::kApp);
    std::vector<RegisterArray*> regs = Registers();
    if (regs.empty()) ThrowNoCheckpoint();
    CheckShape(snap::kApp, ("app '" + name() + "'").c_str(), "register count",
               regs.size(), r.Size());
    std::vector<std::vector<std::uint64_t>> cells;
    cells.reserve(regs.size());
    for (const RegisterArray* reg : regs) cells.push_back(reg->Decode(r));
    return [regs = std::move(regs), cells = std::move(cells)] {
      for (std::size_t i = 0; i < regs.size(); ++i) regs[i]->Commit(cells[i]);
    };
  }
  void LoadState(SnapshotReader& r) { DecodeState(r)(); }

 private:
  [[noreturn]] void ThrowNoCheckpoint() const {
    throw SnapshotError("app '" + name() +
                        "' keeps state outside register arrays and does "
                        "not override SaveState/DecodeState");
  }
};

using AdapterPtr = std::shared_ptr<TelemetryAppAdapter>;

}  // namespace ow
