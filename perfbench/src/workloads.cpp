#include "perfbench/src/workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>

#include "src/detect/detect.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace perfbench {
namespace {

using namespace ow;

std::uint64_t NowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

double Seconds(std::uint64_t ns) { return double(ns) * 1e-9; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return double(t.tv_sec) + 1e-6 * double(t.tv_usec); };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// The program's always-on obs instruments the per-layer split reads.
constexpr const char* kCounters[] = {
    "link.transmitted",         "switch.passes",
    "switch.recirc_passes",     "switch.to_controller_packets",
    "controller.afrs_received", "controller.duplicate_afrs",
    "merge.records",            "merge.batches",
    "net.parallel.idle_spins",  "net.parallel.epilogue_ns",
};
// Histograms are read as (count, sum of samples).
constexpr const char* kHistograms[] = {
    "merge.partition_ns",
    "merge.insert_ns",
    "merge.merge_ns",
    "net.parallel.horizon_stall_ns",
};

std::map<std::string, double> ReadCounters(std::size_t engine_threads) {
  obs::Registry& reg = obs::Global();
  std::map<std::string, double> out;
  for (const char* name : kCounters) out[name] = double(reg.GetCounter(name).value());
  for (const char* name : kHistograms) {
    const obs::Histogram& h = reg.GetHistogram(name);
    out[std::string(name) + ".count"] = double(h.count());
    out[name] = double(h.sum());
  }
  double busy = 0;
  for (std::size_t i = 0; i < engine_threads; ++i) {
    busy += double(reg.GetCounter("net.parallel.busy_ns.w" + std::to_string(i)).value());
  }
  out["net.parallel.busy_ns"] = busy;
  return out;
}

Workload Make(std::string name, TopologyConfig topo, Nanos duration, double pps,
              std::size_t flows) {
  Workload w;
  w.name = std::move(name);
  w.topology = topo;
  w.duration = duration;
  w.pps = pps;
  w.flows = flows;
  return w;
}

TopologyConfig LeafSpine(std::size_t leaves, std::size_t spines) {
  TopologyConfig t;
  t.kind = TopologyKind::kLeafSpine;
  t.leaves = leaves;
  t.spines = spines;
  return t;
}

/// Observer state. The fabric serializes each switch's handler calls, so
/// slot i of every per-switch vector has one writer at a time; switch 0's
/// recount fields are touched only by switch 0's handler.
struct Recorder {
  struct ObserverCall {
    Interval call;
    Interval detect;  ///< empty when no detector
    int drive_span = -1;
  };
  explicit Recorder(std::size_t switches, std::size_t reserve)
      : windows(switches), calls(switches) {
    for (auto& v : windows) v.reserve(reserve);
    for (auto& v : calls) v.reserve(reserve);
  }
  std::vector<std::vector<WindowRecord>> windows;
  std::vector<std::vector<ObserverCall>> calls;
  std::atomic<int> drive_span{-1};
  bool traced = false;    ///< time each observer and detector call
  bool hash_all = false;  ///< digest every switch's tables, not just switch 0
  detect::DetectionService* service = nullptr;
  const Recount* recount = nullptr;
  CountError error;        ///< switch 0 against the exact recount
  CountError model_error;  ///< switch 0 against the tracker-model recount

  void OnWindow(std::size_t i, const WindowResult& w) {
    const std::uint64_t t0 = NowNs();
    // A digest walks the table's whole capacity; timed replays hash switch
    // 0 only, so the benchmark's own scans stay a small part of the drive.
    const bool hashed = hash_all || i == 0;
    std::uint64_t digest = 0;
    if (hashed) {
      w.table->ForEach([&](const KvSlot& s) { digest += DigestEntry(s.key, s.attrs[0]); });
    }
    if (recount != nullptr && i == 0) {
      FlowCounts got;
      w.table->ForEach([&](const KvSlot& s) { got[s.key] = s.attrs[0]; });
      const CountError e = CompareCounts(got, recount->Window(w.span));
      error.abs_err += e.abs_err;
      error.want += e.want;
      const CountError m = CompareCounts(got, recount->Reported(w.span));
      model_error.abs_err += m.abs_err;
      model_error.want += m.want;
    }
    Interval det;
    if (service != nullptr) {
      if (traced) det.start = NowNs();
      service->OnWindow(i, w);
      if (traced) det.end = NowNs();
    }
    windows[i].push_back({w.span, w.partial, hashed, digest, t0});
    if (traced) {
      calls[i].push_back({{t0, NowNs()}, det, drive_span.load(std::memory_order_relaxed)});
    }
  }
};

NetworkRunConfig MakeConfig(const Workload& w) {
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(BenchWindowSpec());
  cfg.base.controller.kv_capacity = w.kv_capacity;
  cfg.base.controller.merge_threads = w.merge_threads;
  cfg.topology = w.topology;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 0;
  cfg.parallel.threads = w.engine_threads;
  return cfg;
}

AdapterPtr MakeApp(std::size_t) { return std::make_shared<ExactCountApp>(); }

Trace MakeTrace(const Workload& w, std::uint64_t seed, bool half,
                std::vector<InjectedAnomaly>* labels) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = half ? w.duration / 2 : w.duration;
  tc.packets_per_sec = w.pps;
  tc.num_flows = w.flows;
  tc.zipf_alpha = w.zipf_alpha;
  TraceGenerator gen(tc);
  Trace trace = gen.GenerateEvaluationTrace();
  if (labels != nullptr) *labels = gen.injected();
  return trace;
}

/// Open a span in `spans` now; returns its index.
int Open(std::vector<Span>& spans, const char* name, int parent, int run) {
  spans.push_back({name, {NowNs(), 0}, parent, run});
  return int(spans.size()) - 1;
}
void Close(std::vector<Span>& spans, int id) { spans[std::size_t(id)].t.end = NowNs(); }

}  // namespace

WindowSpec BenchWindowSpec() {
  WindowSpec spec;
  spec.type = WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  return spec;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    // The call every experiment makes (RunOmniWindowFabric): stage the whole
    // trace, one Finish. Dominated by the staged-arrival commit, then the
    // detector's table scans.
    Workload oneshot = Make("oneshot-detect", LeafSpine(4, 3), 6 * kSecond, 10'000, 8'000);
    oneshot.kv_capacity = 1 << 16;
    oneshot.detector = true;
    // Seeds 1-2000 lose 0 ppm at the median and 97 ppm at most.
    oneshot.count_err_ppm_max = 500;
    v.push_back(oneshot);
    // Always-on streaming with checkpoints: the only user of the parallel
    // engine and of checkpoint I/O.
    Workload stream = Make("stream-parallel-ckpt", LeafSpine(8, 8), 6 * kSecond, 30'000, 8'000);
    stream.engine_threads = 3;
    stream.drive = DriveMode::kStepped;
    stream.ckpt_every = 8;
    // Seeds 1-1000 lose 17 ppm at the median and 417 ppm at most.
    stream.count_err_ppm_max = 1'000;
    v.push_back(stream);
    return v;
  }();
  return all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Replay RunReplay(const Workload& w, std::uint64_t seed, const ReplayOptions& opt) {
  Replay r;
  std::vector<Span>& spans = r.spans;
  const int root = Open(spans, "replay", -1, opt.run);

  std::vector<InjectedAnomaly> labels;
  int s = Open(spans, "trace.gen", root, opt.run);
  const Trace trace = MakeTrace(w, seed, opt.half, &labels);
  Close(spans, s);
  r.gen_s = Seconds(spans[std::size_t(s)].t.end - spans[std::size_t(s)].t.start);
  r.packets = trace.packets.size();
  r.first_ts = trace.packets.front().ts;
  r.last_ts = trace.packets.back().ts;

  const WindowSpec spec = BenchWindowSpec();
  const std::size_t switches = TopologySwitchCount(w.topology);
  const std::size_t expected = ExpectedWindowsPerSwitch(r.first_ts, r.last_ts, spec);
  Recorder rec(switches, expected + 8);
  rec.traced = opt.traced;
  rec.hash_all = opt.count_check;
  std::unique_ptr<detect::DetectionService> service;
  if (w.detector) {
    service = std::make_unique<detect::DetectionService>(detect::DetectorConfig{}, switches);
    rec.service = service.get();
  }
  NetworkRunConfig cfg = MakeConfig(w);
  cfg.window_observer = [&rec](std::size_t i, const WindowResult& res) { rec.OnWindow(i, res); };

  const auto before = ReadCounters(w.engine_threads);
  s = Open(spans, "session.ctor", root, opt.run);
  FabricSession session(trace, MakeApp, cfg);
  Close(spans, s);
  r.ctor_s = Seconds(spans[std::size_t(s)].t.end - spans[std::size_t(s)].t.start);

  std::unique_ptr<Recount> recount;
  if (opt.count_check) {
    recount = std::make_unique<Recount>(trace, spec, FlowKeyKind::kFiveTuple,
                                        cfg.base.data_plane.tracker);
    rec.recount = recount.get();
  }

  auto drive_call = [&](const char* name, auto&& call) {
    const int id = Open(spans, name, root, opt.run);
    rec.drive_span.store(id, std::memory_order_relaxed);
    call();
    Close(spans, id);
  };
  const double cpu0 = CpuSeconds();
  const std::uint64_t drive0 = NowNs();
  if (w.drive == DriveMode::kStepped) {
    const std::size_t steps = std::size_t(session.trace_duration() / spec.subwindow_size) + 1;
    for (std::size_t k = 1; k <= steps; ++k) {
      drive_call("drive.until", [&] { session.DriveUntil(Nanos(k) * spec.subwindow_size); });
      if (w.ckpt_every == 0 || k % w.ckpt_every != 0) continue;
      const std::string path = opt.ckpt_dir + "/ckpt_" + std::to_string(k) + ".owsnap";
      s = Open(spans, "ckpt.write", root, opt.run);
      session.SnapshotToFile(path);
      Close(spans, s);
      r.ckpt_write_ms.push_back(1e-6 * double(spans[std::size_t(s)].t.end -
                                              spans[std::size_t(s)].t.start));
      r.ckpt_bytes.push_back(std::filesystem::file_size(path));
      r.last_ckpt = path;
      r.windows_at_last_ckpt.clear();
      for (const auto& v : rec.windows) r.windows_at_last_ckpt.push_back(v.size());
    }
  }
  NetworkRunResult result;
  drive_call("drive.finish", [&] { result = session.Finish(); });
  r.drive_s = Seconds(NowNs() - drive0);
  r.cpu_s = CpuSeconds() - cpu0;

  const auto after = ReadCounters(w.engine_threads);
  for (const auto& [name, v] : after) r.counters[name] = v - before.at(name);
  for (std::size_t i = 0; i < switches; ++i) {
    for (const SubWindowTiming& t : session.controller(i).timings()) {
      r.o1_ns += std::uint64_t(t.o1_collect);
      r.o2_ns += std::uint64_t(t.o2_insert);
      r.o3_ns += std::uint64_t(t.o3_merge);
      r.o4_ns += std::uint64_t(t.o4_process);
      r.o5_ns += std::uint64_t(t.o5_evict);
    }
    r.inserts_rejected += result.per_switch[i].controller.inserts_rejected;
    r.spilled_keys += result.per_switch[i].data_plane.spilled_keys;
  }
  if (service) {
    r.score = detect::ScoreAlertStream(service->Alerts(), labels);
    r.tracked_peak = service->TotalStats().tracked_peak;
  }
  r.count_error = rec.error;
  r.model_error = rec.model_error;
  Close(spans, root);
  r.wall_s = Seconds(spans[std::size_t(root)].t.end - spans[std::size_t(root)].t.start);
  for (const Span& sp : spans) {
    const double d = Seconds(sp.t.end - sp.t.start);
    if (sp.name == std::string_view("ckpt.write")) r.ckpt_s += d;
    if (std::string_view(sp.name).starts_with("drive.")) r.calls_s += d;
  }

  // Observer calls become spans under the drive call they ran in; the
  // detector call is a child of its observer call.
  for (auto& per_switch : rec.calls) {
    for (const Recorder::ObserverCall& c : per_switch) {
      r.observer_s += Seconds(c.call.end - c.call.start);
      spans.push_back({"observer", c.call, c.drive_span, opt.run});
      if (c.detect.end > c.detect.start) {
        r.detect_s += Seconds(c.detect.end - c.detect.start);
        r.detect_us.push_back(1e-3 * double(c.detect.end - c.detect.start));
        spans.push_back({"detect", c.detect, int(spans.size()) - 1, opt.run});
      }
    }
  }
  r.windows = std::move(rec.windows);
  if (!opt.traced) spans.clear();
  return r;
}

RestoreOutcome RestoreAndFinish(const Workload& w, std::uint64_t seed, const Replay& r,
                                bool traced, int run, std::vector<Span>& spans) {
  const Trace trace = MakeTrace(w, seed, false, nullptr);
  const std::size_t switches = TopologySwitchCount(w.topology);
  Recorder rec(switches, 64);
  rec.hash_all = true;
  NetworkRunConfig cfg = MakeConfig(w);
  cfg.window_observer = [&rec](std::size_t i, const WindowResult& res) { rec.OnWindow(i, res); };
  FabricSession session(trace, MakeApp, cfg);
  std::vector<Span> local;
  const int id = Open(local, "ckpt.restore", -1, run);
  session.RestoreFromFile(r.last_ckpt);
  Close(local, id);
  session.Finish();
  RestoreOutcome out;
  out.restore_ms = 1e-6 * double(local[0].t.end - local[0].t.start);
  out.windows = std::move(rec.windows);
  if (traced) spans.insert(spans.end(), local.begin(), local.end());
  return out;
}

}  // namespace perfbench
