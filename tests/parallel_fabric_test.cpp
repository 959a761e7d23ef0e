// Bit-identity proof for the conservative-lookahead fabric engine: the same
// seed and trace must produce BIT-IDENTICAL windows, per-window count
// tables, data-plane/controller stats, per-link ground truth and scalar obs
// deltas for every thread count — with and without faults armed — because
// wire seq numbers are assigned deterministically at send time and each
// switch commits staged arrivals in one canonical order regardless of which
// thread (or how many) drives it (docs/parallel_execution.md).
//
// Every scenario is also pinned to a recorded digest. The digests were
// computed by the retired sequential engine (one switch at a time, batched
// to the next-earliest event over every other switch), so the lookahead
// engine stays anchored to an independent reference order, not only to
// itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/core/network_runner.h"
#include "src/fault/fault.h"
#include "src/net/network.h"
#include "src/obs/obs.h"
#include "src/telemetry/exact_count.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

Trace FabricTrace(std::uint64_t seed) {
  TraceConfig tc;
  tc.seed = seed;
  tc.duration = 400 * kMilli;
  tc.packets_per_sec = 12'000;
  tc.num_flows = 1'200;
  TraceGenerator gen(tc);
  return gen.GenerateBackground();
}

NetworkRunConfig LeafSpineConfig(std::size_t leaves, std::size_t spines) {
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  spec.slide = spec.window_size;
  NetworkRunConfig cfg;
  cfg.base = RunConfig::Make(spec);
  cfg.base.controller.kv_capacity = 1 << 16;
  cfg.topology.kind = TopologyKind::kLeafSpine;
  cfg.topology.leaves = leaves;
  cfg.topology.spines = spines;
  cfg.capture_counts = true;
  cfg.link.latency = 20 * kMicro;
  cfg.link.jitter = 2 * kMicro;
  return cfg;
}

/// Everything an engine change is NOT allowed to vary.
struct Fingerprint {
  struct Win {
    SubWindowNum first = 0, last = 0;
    Nanos completed_at = 0;
    bool partial = false;
    bool operator==(const Win&) const = default;
  };
  struct PerSwitch {
    std::vector<Win> windows;
    std::map<SubWindowNum, FlowCounts> counts;
    std::uint64_t packets_measured = 0, terminations = 0, afr_generated = 0,
                  reset_passes = 0, spilled_keys = 0, stale_packets = 0,
                  collect_overruns = 0;
    std::uint64_t afrs_received = 0, subwindows_finalized = 0,
                  subwindows_force_finalized = 0, windows_emitted = 0,
                  spilled_keys_stored = 0, retransmissions_requested = 0,
                  duplicate_afrs = 0, windows_partial = 0;
    bool operator==(const PerSwitch&) const = default;
  };
  struct LinkFp {
    int from = -1, to = -1, port = 0;
    std::uint64_t transmitted = 0, dropped = 0, duplicates = 0;
    bool operator==(const LinkFp&) const = default;
  };
  std::vector<PerSwitch> per_switch;
  std::vector<LinkFp> links;
  std::uint64_t link_dropped = 0, report_dropped = 0, delivered = 0;
  /// Scalar obs lines (counters + gauges). net.parallel.* instruments are
  /// wall-clock/schedule accounting and are excluded by construction;
  /// everything else must match bit for bit.
  std::vector<std::string> obs;
  std::uint64_t digest = 0;  ///< Digest() of the run

  bool operator==(const Fingerprint&) const = default;
};

/// Order-independent digest of a run: every window's span, partial flag and
/// completed_at, every count-table entry, and every link's stats, each
/// hashed together with its owner and summed. Built only from Mix64 and
/// FlowKey::Hash, so gcc and clang builds compute the same value.
std::uint64_t Digest(const NetworkRunResult& net) {
  const auto mix = [](std::initializer_list<std::uint64_t> fields) {
    std::uint64_t h = 0;
    for (const std::uint64_t f : fields) h = Mix64(h ^ f);
    return h;
  };
  std::uint64_t d = 0;
  for (std::uint64_t s = 0; s < net.per_switch.size(); ++s) {
    const SwitchRun& sw = net.per_switch[s];
    for (const auto& w : sw.windows) {
      d += mix({1, s, w.span.first, w.span.last,
                std::uint64_t(w.completed_at), w.partial});
    }
    for (const auto& [sub, counts] : sw.counts) {
      for (const auto& [key, n] : counts) {
        d += mix({2, s, sub, key.Hash(0xD16E57ull), n});
      }
    }
  }
  for (const FabricLinkStats& l : net.links) {
    d += mix({3, std::uint64_t(l.from), std::uint64_t(l.to),
              std::uint64_t(l.port), l.transmitted, l.dropped, l.duplicates});
  }
  return d;
}

std::vector<std::string> ScalarObsLines() {
  std::ostringstream os;
  obs::Global().WriteStatsJson(os);
  std::vector<std::string> out;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\": ") == std::string::npos ||
        line.find(": {") != std::string::npos) {
      continue;  // histograms / structure, nondeterministic wall-clock work
    }
    if (line.find("net.parallel.") != std::string::npos) continue;
    out.push_back(line);
  }
  return out;
}

Fingerprint RunFabric(const Trace& trace, NetworkRunConfig cfg,
                      std::size_t threads) {
  obs::Global().Reset();
  cfg.parallel.threads = threads;
  const NetworkRunResult net = RunOmniWindowFabric(
      trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
      cfg);

  Fingerprint fp;
  for (const auto& sw : net.per_switch) {
    Fingerprint::PerSwitch ps;
    for (const auto& w : sw.windows) {
      ps.windows.push_back({w.span.first, w.span.last, w.completed_at,
                            w.partial});
    }
    ps.counts = {sw.counts.begin(), sw.counts.end()};
    ps.packets_measured = sw.data_plane.packets_measured;
    ps.terminations = sw.data_plane.terminations;
    ps.afr_generated = sw.data_plane.afr_generated;
    ps.reset_passes = sw.data_plane.reset_passes;
    ps.spilled_keys = sw.data_plane.spilled_keys;
    ps.stale_packets = sw.data_plane.stale_packets;
    ps.collect_overruns = sw.data_plane.collect_overruns;
    ps.afrs_received = sw.controller.afrs_received;
    ps.subwindows_finalized = sw.controller.subwindows_finalized;
    ps.subwindows_force_finalized = sw.controller.subwindows_force_finalized;
    ps.windows_emitted = sw.controller.windows_emitted;
    ps.spilled_keys_stored = sw.controller.spilled_keys_stored;
    ps.retransmissions_requested = sw.controller.retransmissions_requested;
    ps.duplicate_afrs = sw.controller.duplicate_afrs;
    ps.windows_partial = sw.controller.windows_partial;
    fp.per_switch.push_back(std::move(ps));
  }
  for (const auto& l : net.links) {
    fp.links.push_back(
        {l.from, l.to, l.port, l.transmitted, l.dropped, l.duplicates});
  }
  fp.link_dropped = net.link_dropped;
  fp.report_dropped = net.report_dropped;
  fp.delivered = net.delivered;
  fp.obs = ScalarObsLines();
  fp.digest = Digest(net);
  return fp;
}

/// Runs the scenario at every thread count (0 is the caller-thread sweep).
/// Each run must reproduce `recorded` and match the threads=0 run in full.
/// Returns the threads=0 fingerprint for scenario-specific checks.
Fingerprint ExpectMatchesRecorded(const Trace& trace,
                                  const NetworkRunConfig& cfg,
                                  std::uint64_t recorded) {
  const Fingerprint first = RunFabric(trace, cfg, /*threads=*/0);
  EXPECT_EQ(first.digest, recorded)
      << "threads=0 diverged from the recorded digest: got 0x" << std::hex
      << first.digest;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Fingerprint par = RunFabric(trace, cfg, threads);
    EXPECT_EQ(par.digest, recorded) << "diverged from the recorded digest";
    EXPECT_EQ(first, par) << "results changed with thread count";
  }
  return first;
}

TEST(ParallelFabric, BitIdenticalAcrossThreadCountsFaultFree) {
  const Trace trace = FabricTrace(1201);
  const NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/4, /*spines=*/3);

  const Fingerprint fp =
      ExpectMatchesRecorded(trace, cfg, 0x4e9f488fea39b1c4ull);
  ASSERT_FALSE(fp.per_switch.empty());
  ASSERT_GT(fp.per_switch[0].windows_emitted, 0u);
  EXPECT_GE(fp.delivered, trace.packets.size());
}

TEST(ParallelFabric, BitIdenticalWithFaultsArmed) {
  const Trace trace = FabricTrace(1202);
  NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/3, /*spines=*/2);
  // Loss + reorder inside the fabric, loss on the report path, RPC
  // timeouts + merge stalls in the collection plane: every recovery
  // mechanism runs, and all of it must stay schedule-independent.
  cfg.base.fault.seed = 0xF417A;
  cfg.base.fault.inner_link.drop_rate = 0.05;
  cfg.base.fault.inner_link.reorder_rate = 0.05;
  cfg.base.fault.inner_link.dup_rate = 0.02;
  cfg.base.fault.report_link.drop_rate = 0.10;
  cfg.base.fault.switch_os.timeout_rate = 0.20;
  cfg.base.fault.switch_os.slow_rate = 0.20;
  cfg.base.fault.controller.merge_stall_rate = 0.20;

  const Fingerprint fp =
      ExpectMatchesRecorded(trace, cfg, 0xd24d1ab6bb3ed86aull);
  EXPECT_GT(fp.link_dropped, 0u) << "fabric loss never fired";
  EXPECT_GT(fp.report_dropped, 0u) << "report loss never fired";
}

TEST(ParallelFabric, LineTopologyMatchesSequential) {
  // Chains have no ECMP and the historical "forward into the void" egress;
  // the horizon machinery must not disturb them either.
  const Trace trace = FabricTrace(1203);
  NetworkRunConfig cfg = LeafSpineConfig(2, 2);
  cfg.topology = TopologyConfig{};  // line
  cfg.topology.kind = TopologyKind::kLine;
  cfg.topology.line_switches = 4;

  ExpectMatchesRecorded(trace, cfg, 0x6b5749d799f40c71ull);
}

/// Logs the time of every pass; forwards every packet.
class PassTimeLog final : public SwitchProgram {
 public:
  void Process(Packet&, Nanos now, PacketSource, PipelineActions&) override {
    times.push_back(now);
  }
  std::vector<Nanos> times;
};

TEST(ParallelFabric, CallerThreadHonorsHorizonAgainstIdOrder) {
  // Switch 0 sits downstream of switch 1, so an id-order sweep reaches it
  // before its upstream has sent anything. Only the horizon keeps it from
  // running its own traffic past arrivals that are still to come.
  for (const std::size_t threads : {0u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Network net;
    Switch* down = net.AddSwitch();
    Switch* up = net.AddSwitch();
    auto down_log = std::make_shared<PassTimeLog>();
    down->SetProgram(down_log);
    up->SetProgram(std::make_shared<PassTimeLog>());
    net.Connect(up, down, LinkParams{.latency = 10 * kMicro, .jitter = 0});
    for (int i = 0; i < 100; ++i) {
      Packet p;
      p.ts = Nanos(i) * 7 * kMicro;
      up->EnqueueFromWire(p, p.ts);
      down->EnqueueFromWire(p, p.ts + 3 * kMicro);
    }
    net.SetParallel({.threads = threads});
    net.RunUntilQuiescent(kSecond);
    EXPECT_EQ(down_log->times.size(), 200u);
    EXPECT_TRUE(std::is_sorted(down_log->times.begin(), down_log->times.end()))
        << "switch 0 dispatched past an arrival its upstream had yet to send";
  }
}

/// link.* totals: the registry's, or a sum over links' own counters.
struct LinkTotals {
  std::uint64_t transmitted = 0, dropped = 0, spiked = 0;
  std::uint64_t delay_count = 0, delay_sum = 0;
  bool operator==(const LinkTotals&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const LinkTotals& t) {
    return os << "{transmitted " << t.transmitted << ", dropped " << t.dropped
              << ", spiked " << t.spiked << ", delay count " << t.delay_count
              << ", delay sum " << t.delay_sum << "}";
  }
};

LinkTotals RegistryLinkTotals() {
  obs::Registry& reg = obs::Global();
  const obs::Histogram& delay = reg.GetHistogram("link.delay_ns");
  return {reg.GetCounter("link.transmitted").value(),
          reg.GetCounter("link.dropped").value(),
          reg.GetCounter("link.spiked").value(), delay.count(), delay.sum()};
}

LinkTotals operator-(const LinkTotals& a, const LinkTotals& b) {
  return {a.transmitted - b.transmitted, a.dropped - b.dropped,
          a.spiked - b.spiked, a.delay_count - b.delay_count,
          a.delay_sum - b.delay_sum};
}

/// Adds `link`'s counters. With zero jitter and no fault injector, each
/// delivered hop's delay is latency, plus spike_extra when it spiked, so
/// the delay histogram's count and sum follow from the counters exactly.
void AddLink(LinkTotals& t, const Link& link, const LinkParams& params) {
  t.transmitted += link.transmitted();
  t.dropped += link.dropped();
  t.spiked += link.spiked();
  const std::uint64_t delivered = link.transmitted() - link.dropped();
  t.delay_count += delivered;
  t.delay_sum += delivered * std::uint64_t(params.latency) +
                 link.spiked() * std::uint64_t(params.spike_extra);
}

/// Sum over every link a session drives: fabric, sink and report links.
LinkTotals SessionLinkTotals(const FabricSession& session,
                             const NetworkRunConfig& cfg) {
  // FabricSession's sinks: 1 us, no jitter, loss or spikes.
  const LinkParams sink{.latency = kMicro, .jitter = 0};
  LinkTotals t;
  for (const Network::LinkInfo& info : session.network().links()) {
    AddLink(t, *info.link, info.to < 0 ? sink : cfg.link);
  }
  for (std::size_t i = 0; i < session.num_switches(); ++i) {
    AddLink(t, session.report_link(i), cfg.report_link);
  }
  return t;
}

// Links publish their link.* totals once per drive call, not per packet.
// Whenever RunUntilQuiescent, DriveUntil or Finish returns, the registry
// must already hold every transmission: a flush deferred to the links'
// destruction would leave the registry behind (and perfbench's
// fabric.ns_per_hop, read from link.transmitted, at zero).
TEST(ParallelFabric, LinkTelemetryIsPublishedWhenEachDriveReturns) {
  const LinkParams lossy{.latency = 20 * kMicro,
                         .jitter = 0,
                         .loss_rate = 0.03,
                         .spike_rate = 0.05,
                         .spike_extra = 50 * kMicro};
  const Trace trace = FabricTrace(1204);
  for (const std::size_t threads : {0u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      // A bare network: two switches in a line and a sink.
      const LinkTotals base = RegistryLinkTotals();
      Network net;
      Switch* a = net.AddSwitch();
      Switch* b = net.AddSwitch();
      a->SetProgram(std::make_shared<PassTimeLog>());
      b->SetProgram(std::make_shared<PassTimeLog>());
      const Link* ab = net.Connect(a, b, lossy);
      const Link* out = net.ConnectToSink(b, lossy, [](Packet, Nanos) {});
      for (const Packet& p : trace.packets) a->EnqueueFromWire(p, p.ts);
      net.SetParallel({.threads = threads});
      for (const Nanos t : {100 * kMilli, 400 * kMilli + kSecond}) {
        net.RunUntilQuiescent(t);
        LinkTotals want;
        AddLink(want, *ab, lossy);
        AddLink(want, *out, lossy);
        EXPECT_EQ(RegistryLinkTotals() - base, want) << "after t=" << t;
      }
    }
    NetworkRunConfig cfg = LeafSpineConfig(/*leaves=*/3, /*spines=*/2);
    cfg.parallel.threads = threads;
    cfg.link = lossy;
    cfg.report_link = lossy;
    cfg.report_link.latency = 2 * kMicro;
    const LinkTotals base = RegistryLinkTotals();
    FabricSession session(
        trace, [](std::size_t) { return std::make_shared<ExactCountApp>(); },
        cfg);
    for (const Nanos t : {50 * kMilli, 150 * kMilli, 300 * kMilli}) {
      session.DriveUntil(t);
      EXPECT_EQ(RegistryLinkTotals() - base, SessionLinkTotals(session, cfg))
          << "after DriveUntil(" << t << ")";
    }
    (void)session.Finish();
    const LinkTotals got = RegistryLinkTotals() - base;
    EXPECT_EQ(got, SessionLinkTotals(session, cfg)) << "after Finish";
    EXPECT_GT(got.dropped, 0u);
    EXPECT_GT(got.spiked, 0u);
  }
}

}  // namespace
}  // namespace ow
