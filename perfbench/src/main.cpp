// perfbench_run: replay one benchmark workload for a fixed wall time and
// write its metrics, correctness checks and host data as JSON.
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                 --out RESULT.json --spans SPANS.jsonl --workdir DIR
//
// --trace 0 times untraced replays back to back and reports the end-to-end
// metrics. --trace 1 cycles a traced replay (benchmark spans around every
// layer call), an untraced replay (tracing overhead) and an untraced replay
// of the half-length trace (the scaling probe), and reports the per-layer
// split. Both end with an untimed verification replay that recounts
// switch 0's windows, and (checkpointing workloads) a restore of the last
// checkpoint. Exit code 1 when any correctness check fails.
//
//   perfbench_run --calibrate
//
// prints the host-speed fingerprint kernels' times as one JSON line.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench_math.h"
#include "perfbench/src/workloads.h"

namespace {

using namespace perfbench;

/// Unattributed share of a traced replay's wall time (time in no layer
/// span) above which the per-layer split is refused.
constexpr double kSplitTolerance = 0.02;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string ArgOr(int argc, char** argv, const std::string& key, const std::string& def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == key) return argv[i + 1];
  }
  return def;
}

double ElapsedS(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Nanoseconds of a fixed dependent integer chain (best of five): the
/// host's core speed.
double AluCalibrationNs() {
  double best = 1e30;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < (1 << 22); ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0).count();
    if (ns < best) best = ns;
  }
  if (x == 42) std::fprintf(stderr, "calibration sink\n");
  return best;
}

/// Nanoseconds per load of a dependent pointer chase over 128 MiB, more
/// than the last-level cache of the hosts the benchmark runs on (median of
/// five chases): the host's memory latency, which other tenants' traffic
/// moves far more than core speed. The chain is a full-period LCG over
/// the buffer's indices, so it visits every slot in an order no stride
/// prefetcher follows, and filling it takes one sequential pass.
double MemoryCalibrationNs() {
  constexpr std::uint32_t kSlots = 1u << 25;  // 4-byte slots: 128 MiB
  constexpr int kLoads = 1 << 20;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    // a = 1 (mod 4) and odd c: full period modulo a power of two.
    next[i] = (i * 0x9E3779B1u + 12345u) & (kSlots - 1);
  }
  std::vector<double> per_load;
  std::uint32_t at = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLoads; ++i) at = next[at];
    per_load.push_back(std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0).count() / kLoads);
  }
  if (at == 42) std::fprintf(stderr, "calibration sink\n");
  return Median(per_load);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Dur(const Span& s) { return double(s.t.end - s.t.start) * 1e-9; }

/// Window failures of one replay: expected spans missing or emitted
/// partial, over every switch.
struct WindowTally {
  std::size_t expected = 0;
  std::size_t failed = 0;
};
WindowTally TallyWindows(const Replay& r) {
  const ow::WindowSpec spec = BenchWindowSpec();
  const std::size_t per_switch = ExpectedWindowsPerSwitch(r.first_ts, r.last_ts, spec);
  const std::size_t per_window = spec.SubWindowsPerWindow();
  const std::size_t per_slide = spec.SubWindowsPerSlide();
  WindowTally t;
  for (const auto& windows : r.windows) {
    t.expected += per_switch;
    std::vector<int> state(per_switch, 0);  // 0 missing, 1 exact, 2 partial
    for (const WindowRecord& rec : windows) {
      if (rec.span.first % per_slide != 0) continue;
      const std::size_t k = rec.span.first / per_slide;
      if (k >= per_switch || rec.span.count() != per_window) continue;
      state[k] = std::max(state[k], rec.partial ? 2 : 1);
    }
    for (int s : state) t.failed += s != 1;
  }
  return t;
}

bool SameStream(const std::vector<WindowRecord>& a, const std::vector<WindowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].SameWindow(b[i])) return false;
  }
  return true;
}

bool SameWindows(const Replay& a, const Replay& b) {
  if (a.windows.size() != b.windows.size()) return false;
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    if (!SameStream(a.windows[i], b.windows[i])) return false;
  }
  return true;
}

/// Wall ms between successive window emissions of the same switch, pooled
/// over switches and replays.
std::vector<double> SlideGapsMs(const std::vector<Replay>& reps) {
  std::vector<double> gaps;
  for (const Replay& r : reps) {
    for (const auto& windows : r.windows) {
      for (std::size_t i = 1; i < windows.size(); ++i) {
        gaps.push_back(1e-6 * double(windows[i].emitted_ns - windows[i - 1].emitted_ns));
      }
    }
  }
  return gaps;
}

std::vector<double> Collect(const std::vector<Replay>& reps,
                            const std::function<double(const Replay&)>& f) {
  std::vector<double> v;
  for (const Replay& r : reps) v.push_back(f(r));
  return v;
}

/// Factor turning thread time spent inside drive calls into a share of
/// their wall time. The sequential engine does all drive work on the
/// calling thread (factor 1); on the parallel engine the controller timers
/// and observer calls are worker-thread time, so each is apportioned the
/// drive wall by its share of the workers' busy time.
double DriveWallPerThreadSecond(const Replay& r, std::size_t engine_threads) {
  if (engine_threads == 0) return 1.0;
  const double busy = r.counters.at("net.parallel.busy_ns") * 1e-9;
  return busy > 0 ? r.calls_s / busy : 0.0;
}

/// Controller O2-O5 timers, summed over switches, in seconds.
double ControllerS(const Replay& r) {
  return double(r.o2_ns + r.o3_ns + r.o4_ns + r.o5_ns) * 1e-9;
}

/// Drive-call wall time left after the controller's own timers: the net,
/// switchsim and data-plane layers.
double FabricSelfS(const Replay& r, std::size_t engine_threads) {
  return r.calls_s - DriveWallPerThreadSecond(r, engine_threads) * ControllerS(r);
}

/// Per-layer self times of one traced replay, in seconds. Together with
/// `unattributed`, the replay span's own self time (wall spent in no layer
/// call), they add up to the replay's wall time `wall`.
std::vector<std::pair<std::string, double>> LayerSplit(const Replay& r,
                                                       std::size_t engine_threads,
                                                       double* wall, double* unattributed) {
  const Span& root = r.spans.front();
  std::vector<Interval> children;
  for (const Span& s : r.spans) {
    if (s.parent == 0) children.push_back(s.t);
  }
  *wall = Dur(root);
  *unattributed = double(SelfTimeNs(root.t, children)) * 1e-9;
  const double k = DriveWallPerThreadSecond(r, engine_threads);
  return {
      {"trace: generation (trace.gen_s)", r.gen_s},
      {"net+switchsim: session construction (session.ctor_s)", r.ctor_s},
      {"net+switchsim+data plane (fabric.self_s)", FabricSelfS(r, engine_threads)},
      {"controller: KV insert + merge (ctl.o2, ctl.o3)", k * double(r.o2_ns + r.o3_ns) * 1e-9},
      {"core: window assembly + evict (ctl.o4_other, ctl.o5)",
       k * (double(r.o4_ns + r.o5_ns) * 1e-9 - r.observer_s)},
      {"detect (detect.ms)", k * r.detect_s},
      {"benchmark observer hashing (bench.observer_ms)", k * (r.observer_s - r.detect_s)},
      {"checkpoint writes (ckpt.write)", r.ckpt_s},
  };
}

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

static int Run(int argc, char** argv) {
  const std::string name = ArgOr(argc, argv, "--workload", "");
  const Workload* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_run: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const std::uint64_t seed = std::stoull(ArgOr(argc, argv, "--seed", "1"));
  const double seconds = std::stod(ArgOr(argc, argv, "--seconds", "10"));
  const bool traced = ArgOr(argc, argv, "--trace", "0") == "1";
  const std::string out_path = ArgOr(argc, argv, "--out", "perfbench_result.json");
  const std::string spans_path = ArgOr(argc, argv, "--spans", "");
  const std::string workdir = ArgOr(argc, argv, "--workdir", ".");
  std::filesystem::create_directories(workdir);

  // --- timed replays --------------------------------------------------------
  std::vector<Replay> untraced, traced_reps, half;
  int run = 0;
  auto replay = [&](bool trace_it, bool half_it) {
    ReplayOptions opt;
    opt.traced = trace_it;
    opt.half = half_it;
    opt.run = run++;
    opt.ckpt_dir = workdir;
    Replay r = RunReplay(*w, seed, opt);
    std::fprintf(stderr, "replay %d%s%s: setup %.4f s, drive %.4f s, %.0f pkts/s\n", opt.run,
                 trace_it ? " traced" : "", half_it ? " half" : "", r.gen_s + r.ctor_s,
                 r.drive_s, double(r.packets) / r.drive_s);
    return r;
  };
  replay(false, true);  // warm-up: first-touch page faults, allocator pools
  const auto t0 = std::chrono::steady_clock::now();
  if (!traced) {
    do {
      untraced.push_back(replay(false, false));
    } while (ElapsedS(t0) < seconds || untraced.size() < 2);
  } else {
    do {
      // Alternate which of the traced/untraced pair runs first.
      const bool traced_first = traced_reps.size() % 2 == 0;
      if (traced_first) traced_reps.push_back(replay(true, false));
      untraced.push_back(replay(false, false));
      if (!traced_first) traced_reps.push_back(replay(true, false));
      half.push_back(replay(false, true));
    } while (ElapsedS(t0) < seconds);
  }
  const double peak_rss_mb = PeakRssMb();

  // --- untimed verification ------------------------------------------------
  ReplayOptions vopt;
  vopt.traced = traced;
  vopt.count_check = true;
  vopt.run = run++;
  vopt.ckpt_dir = workdir;
  Replay verify = RunReplay(*w, seed, vopt);
  std::vector<Span> extra_spans;
  RestoreOutcome restore;
  if (w->ckpt_every != 0) {
    restore = RestoreAndFinish(*w, seed, verify, traced, run++, extra_spans);
  }

  std::vector<Check> checks;
  std::size_t attempted = 0, failed_windows = 0;
  {
    std::vector<const Replay*> all;
    for (const auto* v : {&untraced, &traced_reps, &half}) {
      for (const Replay& r : *v) all.push_back(&r);
    }
    all.push_back(&verify);
    std::uint64_t rejected = 0;
    for (const Replay* r : all) {
      const WindowTally t = TallyWindows(*r);
      attempted += t.expected;
      failed_windows += t.failed;
      rejected += r->inserts_rejected;
    }
    checks.push_back({"windows_present_exact", failed_windows == 0,
                      std::to_string(failed_windows) + " of " + std::to_string(attempted) +
                          " expected windows missing or partial"});
    checks.push_back({"inserts_rejected_zero", rejected == 0,
                      std::to_string(rejected) + " rejected KV inserts"});
    bool same = true;
    for (const auto* v : {&untraced, &traced_reps}) {
      for (const Replay& r : *v) same = same && SameWindows(r, verify);
    }
    for (const Replay& r : half) same = same && SameWindows(r, half.front());
    checks.push_back({"replays_identical", same,
                      "every timed replay emitted the verification replay's windows "
                      "(switch 0 contents, every switch's spans and flags)"});
  }
  const double count_ppm = ErrorPpm(verify.count_error);
  // Switch 0's windows must equal the recount minus the flowkey tracker's
  // Bloom false-positive losses, exactly; the losses themselves are the
  // residual count_err_ppm reports.
  checks.push_back({"counts_match_recount", verify.model_error.abs_err == 0,
                    "switch 0 off the tracker-model recount by " +
                        std::to_string(verify.model_error.abs_err) + " packets"});
  checks.push_back({"count_err_within_ceiling", count_ppm <= w->count_err_ppm_max,
                    "exact-recount error " + std::to_string(count_ppm) + " ppm (ceiling " +
                        std::to_string(w->count_err_ppm_max) + " ppm)"});
  if (w->detector) {
    const auto& pr = verify.score.pr;
    checks.push_back({"alert_quality", pr.precision >= 0.9 && pr.recall >= 0.8,
                      "precision " + std::to_string(pr.precision) + " (>= 0.9), recall " +
                          std::to_string(pr.recall) + " (>= 0.8)"});
  }
  if (w->ckpt_every != 0) {
    bool same = !verify.last_ckpt.empty();
    for (std::size_t i = 0; same && i < verify.windows.size(); ++i) {
      const auto& full = verify.windows[i];
      const std::vector<WindowRecord> tail(
          full.begin() + std::ptrdiff_t(verify.windows_at_last_ckpt[i]), full.end());
      same = SameStream(restore.windows[i], tail);
    }
    checks.push_back({"restore_tail_identical", same,
                      "restored " + verify.last_ckpt + " and finished: windows equal the "
                      "uninterrupted run's tail"});
  }

  // --- metrics -------------------------------------------------------------
  std::vector<Metric> metrics;
  auto add = [&](const std::string& n, double v, const std::string& unit, std::size_t samples) {
    metrics.push_back({n, v, unit, samples});
  };
  const std::size_t nrep = untraced.size();
  const double expected_windows = double(attempted);
  add("window_fail_frac", expected_windows > 0 ? double(failed_windows) / expected_windows : 0,
      "fraction", attempted);
  add("count_err_ppm", count_ppm, "ppm", 1);
  add("peak_rss_mb", peak_rss_mb, "MB", 1);
  if (w->detector) {
    add("alert_precision", verify.score.pr.precision, "fraction", verify.score.actionable_alerts);
    add("alert_recall", verify.score.pr.recall, "fraction", verify.score.labels);
    add("alert_latency_ms", double(verify.score.mean_detection_latency) / 1e6, "ms",
        verify.score.labels_detected);
  } else {
    // No detector on this workload: reported as 0, never compared.
    add("alert_precision", 0, "fraction", 0);
    add("alert_recall", 0, "fraction", 0);
    add("alert_latency_ms", 0, "ms", 0);
  }

  if (!traced) {
    add("setup_s", Median(Collect(untraced, [](const Replay& r) { return r.gen_s + r.ctor_s; })),
        "s", nrep);
    add("pkts_per_s",
        Median(Collect(untraced, [](const Replay& r) { return double(r.packets) / r.drive_s; })),
        "1/s", nrep);
    const std::vector<double> gaps = SlideGapsMs(untraced);
    checks.push_back({"slide_samples", PercentileHasTail(gaps.size(), 90),
                      std::to_string(gaps.size()) + " slide gaps (p90 needs >= 100)"});
    add("slide_ms_p50", Quantile(gaps, 0.5), "ms", gaps.size());
    add("slide_ms_p90", Quantile(gaps, 0.9), "ms", gaps.size());
  } else {
    const std::size_t nt = traced_reps.size();
    auto med = [&](const std::function<double(const Replay&)>& f) {
      return Median(Collect(traced_reps, f));
    };
    auto ctr = [](const Replay& r, const char* n) { return r.counters.at(n); };
    const double threads = double(w->engine_threads);
    const std::size_t engine = w->engine_threads;
    auto fabric_self = [engine](const Replay& r) { return FabricSelfS(r, engine); };
    add("trace.gen_s", med([](const Replay& r) { return r.gen_s; }), "s", nt);
    add("session.ctor_s", med([](const Replay& r) { return r.ctor_s; }), "s", nt);
    add("fabric.self_s", med(fabric_self), "s", nt);
    add("fabric.ns_per_hop", med([&](const Replay& r) {
          const double hops = ctr(r, "link.transmitted");
          return hops > 0 ? fabric_self(r) * 1e9 / hops : 0.0;
        }), "ns", nt);
    const double full_drive = Median(Collect(untraced, [](const Replay& r) { return r.calls_s; }));
    const double half_drive = Median(Collect(half, [](const Replay& r) { return r.calls_s; }));
    add("fabric.scale_2x", full_drive / half_drive, "ratio", std::min(untraced.size(), half.size()));
    add("net.parallel.busy_s", med([&](const Replay& r) { return ctr(r, "net.parallel.busy_ns") * 1e-9; }), "s", nt);
    add("net.parallel.util", med([&](const Replay& r) {
          return threads > 0 ? ctr(r, "net.parallel.busy_ns") * 1e-9 / (threads * r.calls_s) : 0.0;
        }), "fraction", nt);
    add("net.parallel.idle_spins", med([&](const Replay& r) { return ctr(r, "net.parallel.idle_spins"); }), "count", nt);
    // The engine records each stall as the simulated-time distance between
    // a node's next pending event and its lookahead bound.
    add("net.parallel.horizon_stalls", med([&](const Replay& r) { return ctr(r, "net.parallel.horizon_stall_ns.count"); }), "count", nt);
    add("net.parallel.horizon_stall_ms", med([&](const Replay& r) { return ctr(r, "net.parallel.horizon_stall_ns") * 1e-6; }), "ms_sim", nt);
    add("net.parallel.epilogue_ms", med([&](const Replay& r) { return ctr(r, "net.parallel.epilogue_ns") * 1e-6; }), "ms", nt);
    add("proc.cpu_s", med([](const Replay& r) { return r.cpu_s; }), "s", nt);
    add("switch.passes", med([&](const Replay& r) { return ctr(r, "switch.passes"); }), "count", nt);
    add("switch.recirc_frac", med([&](const Replay& r) {
          const double p = ctr(r, "switch.passes");
          return p > 0 ? ctr(r, "switch.recirc_passes") / p : 0.0;
        }), "fraction", nt);
    add("switch.to_controller_packets", med([&](const Replay& r) { return ctr(r, "switch.to_controller_packets"); }), "count", nt);
    add("dp.spilled_keys", med([](const Replay& r) { return double(r.spilled_keys); }), "count", nt);
    add("ctl.afrs", med([&](const Replay& r) { return ctr(r, "controller.afrs_received"); }), "count", nt);
    add("ctl.dup_afr_frac", med([&](const Replay& r) {
          const double a = ctr(r, "controller.afrs_received");
          return a > 0 ? ctr(r, "controller.duplicate_afrs") / a : 0.0;
        }), "fraction", nt);
    add("ctl.o2_insert_ms", med([](const Replay& r) { return double(r.o2_ns) * 1e-6; }), "ms", nt);
    add("ctl.o3_merge_ms", med([](const Replay& r) { return double(r.o3_ns) * 1e-6; }), "ms", nt);
    add("ctl.o4_other_ms", med([](const Replay& r) { return double(r.o4_ns) * 1e-6 - r.observer_s * 1e3; }), "ms", nt);
    add("ctl.o5_evict_ms", med([](const Replay& r) { return double(r.o5_ns) * 1e-6; }), "ms", nt);
    add("ctl.inserts_rejected", med([](const Replay& r) { return double(r.inserts_rejected); }), "count", nt);
    add("ctl.o1_collect_sim_ms", med([](const Replay& r) { return double(r.o1_ns) * 1e-6; }), "ms_model", nt);
    add("merge.records_per_batch", med([&](const Replay& r) {
          const double b = ctr(r, "merge.batches");
          return b > 0 ? ctr(r, "merge.records") / b : 0.0;
        }), "count", nt);
    add("merge.ns_per_record", med([&](const Replay& r) {
          const double n = ctr(r, "merge.records");
          return n > 0 ? (ctr(r, "merge.partition_ns") + ctr(r, "merge.insert_ns") +
                          ctr(r, "merge.merge_ns")) / n
                       : 0.0;
        }), "ns", nt);
    std::vector<double> detect_us, ckpt_ms;
    for (const Replay& r : traced_reps) {
      detect_us.insert(detect_us.end(), r.detect_us.begin(), r.detect_us.end());
      ckpt_ms.insert(ckpt_ms.end(), r.ckpt_write_ms.begin(), r.ckpt_write_ms.end());
    }
    add("detect.ms", med([](const Replay& r) { return r.detect_s * 1e3; }), "ms", nt);
    add("detect.us_per_window_p50", Quantile(detect_us, 0.5), "us", detect_us.size());
    add("detect.us_per_window_p90", Quantile(detect_us, 0.9), "us", detect_us.size());
    if (w->detector) {
      checks.push_back({"detect_samples", PercentileHasTail(detect_us.size(), 90),
                        std::to_string(detect_us.size()) + " detector calls (p90 needs >= 100)"});
    }
    add("detect.tracked_peak", med([](const Replay& r) { return double(r.tracked_peak); }), "count", nt);
    add("bench.observer_ms", med([](const Replay& r) { return (r.observer_s - r.detect_s) * 1e3; }), "ms", nt);
    double bytes = 0, write_s = 0;
    for (const Replay& r : traced_reps) {
      for (std::uint64_t b : r.ckpt_bytes) bytes += double(b);
      for (double ms : r.ckpt_write_ms) write_s += ms * 1e-3;
    }
    add("ckpt.write_ms_p50", Quantile(ckpt_ms, 0.5), "ms", ckpt_ms.size());
    add("ckpt.write_ms_max", ckpt_ms.empty() ? 0 : *std::max_element(ckpt_ms.begin(), ckpt_ms.end()), "ms", ckpt_ms.size());
    add("ckpt.bytes", ckpt_ms.empty() ? 0 : bytes / double(ckpt_ms.size()), "B", ckpt_ms.size());
    add("ckpt.mb_per_s", write_s > 0 ? bytes / 1e6 / write_s : 0, "MB/s", ckpt_ms.size());
    add("ckpt.restore_ms", restore.restore_ms, "ms", w->ckpt_every != 0 ? 1 : 0);

    // Layer split: summed over traced replays, checked for additivity.
    double wall_sum = 0, unattributed_sum = 0;
    std::vector<std::pair<std::string, double>> split;
    for (const Replay& r : traced_reps) {
      double wall = 0, un = 0;
      auto layers = LayerSplit(r, engine, &wall, &un);
      wall_sum += wall;
      unattributed_sum += un;
      if (split.empty()) split = layers;
      else for (std::size_t i = 0; i < split.size(); ++i) split[i].second += layers[i].second;
    }
    const double unattributed_frac = wall_sum > 0 ? unattributed_sum / wall_sum : 0;
    std::fprintf(stderr, "layer split over %zu traced replays (self time, s):\n", nt);
    double layer_sum = 0;
    for (const auto& [layer, sec] : split) {
      std::fprintf(stderr, "  %-50s %10.4f  %5.1f%%\n", layer.c_str(), sec, 100 * sec / wall_sum);
      layer_sum += sec;
    }
    std::fprintf(stderr, "  %-50s %10.4f\n  %-50s %10.4f  (unattributed %.3f%%, tolerance %.1f%%)\n",
                 "sum of layers", layer_sum, "traced wall", wall_sum, 100 * unattributed_frac,
                 100 * kSplitTolerance);
    checks.push_back({"layer_split_adds_up", unattributed_frac <= kSplitTolerance,
                      "layers cover all but " + std::to_string(100 * unattributed_frac) +
                          "% of traced wall (tolerance " + std::to_string(100 * kSplitTolerance) + "%)"});
    add("split.wall_s", med([](const Replay& r) { return r.wall_s; }), "s", nt);
    add("split.unattributed_frac", unattributed_frac, "fraction", nt);
    const double traced_wall = med([](const Replay& r) { return r.wall_s; });
    const double plain_wall = Median(Collect(untraced, [](const Replay& r) { return r.wall_s; }));
    add("trace.overhead_frac", traced_wall / plain_wall - 1.0, "fraction", nt);
  }

  // --- output ----------------------------------------------------------------
  // Failed operations: each missing or partial window, plus one for every
  // other failed check.
  std::size_t failed_checks = 0, failed = failed_windows;
  for (const Check& c : checks) {
    failed_checks += !c.ok;
    if (!c.ok && c.name != "windows_present_exact") ++failed;
  }
  {
    std::ofstream out(out_path);
    out.precision(17);
    out << "{\"workload\": ";
    WriteJsonString(out, w->name);
    out << ", \"seed\": " << seed << ", \"trace\": " << (traced ? 1 : 0)
        << ", \"replays\": " << run << ", \"build_type\": ";
    WriteJsonString(out, PERFBENCH_BUILD_TYPE);
    out << ", \"ow_obs\": " << (PERFBENCH_OW_OBS ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      out << (i ? ", " : "") << "{\"name\": ";
      WriteJsonString(out, checks[i].name);
      out << ", \"ok\": " << (checks[i].ok ? "true" : "false") << ", \"detail\": ";
      WriteJsonString(out, checks[i].detail);
      out << "}";
    }
    out << "], \"metrics\": [";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << "{\"name\": ";
      WriteJsonString(out, metrics[i].name);
      out << ", \"value\": " << metrics[i].value << ", \"unit\": ";
      WriteJsonString(out, metrics[i].unit);
      out << ", \"samples\": " << metrics[i].samples << "}";
    }
    out << "]}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench_run: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }
  if (traced && !spans_path.empty()) {
    // Spans stay in memory until here; written once, per replay, with the
    // replay's obs counter deltas.
    std::ofstream out(spans_path);
    out.precision(17);
    auto write_spans = [&](const std::vector<Span>& spans) {
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << "{\"run\": " << s.run << ", \"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << s.t.start << ", \"end_ns\": " << s.t.end
            << ", \"parent\": " << s.parent << "}\n";
      }
    };
    auto write_replay = [&](const Replay& r) {
      write_spans(r.spans);
      out << "{\"run\": " << r.spans.front().run << ", \"counters\": {";
      bool first = true;
      for (const auto& [n, v] : r.counters) {
        out << (first ? "" : ", ") << "\"" << n << "\": " << v;
        first = false;
      }
      out << "}}\n";
    };
    for (const Replay& r : traced_reps) write_replay(r);
    write_replay(verify);
    write_spans(extra_spans);
  }
  return failed_checks == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  if (argc == 2 && argv[1] == std::string("--calibrate")) {
    // Host speed for the fingerprint, measured in a process of its own so
    // its buffer never counts in a workload's peak RSS.
    std::printf("{\"alu_ns\": %.1f, \"mem_ns\": %.3f}\n", AluCalibrationNs(),
                MemoryCalibrationNs());
    return 0;
  }
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    // An API call threw (bad checkpoint, I/O error, ...): no result.
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
}
