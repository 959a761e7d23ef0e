// The benchmark's two workloads and the replay that times one pass of a
// workload through the public OmniWindow API (TraceGenerator,
// FabricSession, NetworkRunConfig::window_observer, DetectionService).
//
// Every replay is closed-loop: one driver thread hands the fabric its next
// input (the whole trace, or the next 100 ms boundary) only after the
// previous call returned. Nothing inside src/ is instrumented for the
// benchmark; layers are timed from outside, around calls into public
// functions, plus the program's own public accessors and obs counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/bench_math.h"
#include "src/core/network_runner.h"
#include "src/detect/score.h"

namespace perfbench {

enum class DriveMode {
  kOneShot,  ///< stage the whole trace, then one Finish()
  kStepped,  ///< DriveUntil at every sub-window boundary, then Finish()
};

struct Workload {
  std::string name;
  ow::TopologyConfig topology;
  ow::Nanos duration = 0;
  double pps = 0;
  std::size_t flows = 0;
  double zipf_alpha = 1.0;
  std::size_t engine_threads = 0;
  std::size_t merge_threads = 1;
  std::size_t kv_capacity = 1 << 17;
  bool detector = false;
  DriveMode drive = DriveMode::kOneShot;
  std::size_t ckpt_every = 0;  ///< boundaries between checkpoints; 0 = none
  /// Ceiling on switch 0's count error against the exact recount (ppm).
  /// The error is the flowkey tracker's Bloom false-positive loss; the
  /// ceiling is a fixed number, so a tracker that loses more fails the run.
  double count_err_ppm_max = 0;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

/// The window geometry every workload uses (§9.1): 500 ms sliding windows,
/// 100 ms slide, 100 ms sub-windows.
ow::WindowSpec BenchWindowSpec();

/// One span of the benchmark's own tracing. `parent` indexes the span list
/// it belongs to (-1 for a root); `run` is the replay's index in its run.
struct Span {
  const char* name = "";
  Interval t;
  int parent = -1;
  int run = 0;
};

/// One emitted window, as the observer saw it.
struct WindowRecord {
  ow::SubWindowSpan span;
  bool partial = false;
  bool hashed = false;       ///< `digest` was taken
  std::uint64_t digest = 0;  ///< sum of DigestEntry over the table
  std::uint64_t emitted_ns = 0;  ///< steady clock at the observer call

  /// Same span and flag, and the same contents where both were hashed.
  bool SameWindow(const WindowRecord& o) const {
    return span == o.span && partial == o.partial &&
           (!hashed || !o.hashed || digest == o.digest);
  }
};

struct ReplayOptions {
  bool traced = false;       ///< record spans
  bool half = false;         ///< replay the trace at half length
  /// Untimed verification pass: recount switch 0's windows and digest
  /// every switch's tables.
  bool count_check = false;
  int run = 0;               ///< replay index, stamped on spans
  std::string ckpt_dir;      ///< where checkpoint files go
};

/// Everything one replay measured. Times are seconds unless named _ns.
struct Replay {
  std::size_t packets = 0;
  ow::Nanos first_ts = 0;
  ow::Nanos last_ts = 0;
  double wall_s = 0;    ///< the whole replay: generation to scoring
  double gen_s = 0;
  double ctor_s = 0;
  double drive_s = 0;   ///< first drive call to Finish() return
  double calls_s = 0;   ///< inside DriveUntil/Finish calls
  double ckpt_s = 0;    ///< inside SnapshotToFile calls
  double cpu_s = 0;     ///< process user+sys over the drive
  /// Observer and detector call times, measured in traced replays only.
  double observer_s = 0;  ///< observer calls, detector included
  double detect_s = 0;    ///< DetectionService::OnWindow calls
  std::vector<double> detect_us;  ///< per detector call
  std::vector<std::vector<WindowRecord>> windows;  ///< per switch
  std::vector<double> ckpt_write_ms;
  std::vector<std::uint64_t> ckpt_bytes;
  std::string last_ckpt;  ///< path of the last checkpoint written
  std::vector<std::size_t> windows_at_last_ckpt;  ///< per switch
  /// Controller timers summed over switches and sub-windows (ns); O1 is
  /// the program's simulated collection model.
  std::uint64_t o1_ns = 0, o2_ns = 0, o3_ns = 0, o4_ns = 0, o5_ns = 0;
  std::uint64_t inserts_rejected = 0;
  std::uint64_t spilled_keys = 0;
  /// Deltas of the program's obs counters (histograms: sum of samples).
  std::map<std::string, double> counters;
  ow::detect::StreamingScore score;
  std::size_t tracked_peak = 0;
  CountError count_error;  ///< vs the exact recount, when count_check
  CountError model_error;  ///< vs Recount::Reported, when count_check
  std::vector<Span> spans;  ///< filled when traced
};

/// Generate the workload's trace from `seed`, build a session, drive it to
/// the end. Throws on API errors (they are benchmark failures).
Replay RunReplay(const Workload& w, std::uint64_t seed,
                 const ReplayOptions& opt);

/// Restore `r.last_ckpt` into a fresh session of the same workload and
/// finish it. Returns the restored session's windows (per switch) and the
/// RestoreFromFile time; appends its spans to `spans` when traced.
struct RestoreOutcome {
  std::vector<std::vector<WindowRecord>> windows;
  double restore_ms = 0;
};
RestoreOutcome RestoreAndFinish(const Workload& w, std::uint64_t seed,
                                const Replay& r, bool traced, int run,
                                std::vector<Span>& spans);

}  // namespace perfbench
