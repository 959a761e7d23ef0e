// Focused coverage for paths the broader suites touch only incidentally:
// trace anomaly semantics, byte-value adapters, resource-table rendering,
// DPDK cost model defaults, key rendering and window edge cases.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/common/metrics.h"
#include "src/core/runner.h"
#include "src/switchsim/resources.h"
#include "src/telemetry/baselines.h"
#include "src/telemetry/query_builder.h"
#include "src/trace/generator.h"

namespace ow {
namespace {

TraceConfig SmallConfig() {
  TraceConfig cfg;
  cfg.seed = 17;
  cfg.duration = 400 * kMilli;
  cfg.packets_per_sec = 5'000;
  cfg.num_flows = 500;
  return cfg;
}

TEST(TraceAnomalies, SshBruteForceShapesFlows) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectSshBruteForce(trace, 0, 200 * kMilli, 100);
  const FlowKey victim = gen.injected()[0].victim_or_actor;
  std::size_t syns = 0, fins = 0;
  for (const Packet& p : trace.packets) {
    ASSERT_EQ(p.ft.dst_port, 22);
    EXPECT_EQ(p.Key(FlowKeyKind::kDstIp), victim);
    if (p.tcp_flags == kTcpSyn) ++syns;
    if (p.tcp_flags & kTcpFin) ++fins;
  }
  EXPECT_EQ(syns, 100u);  // one SYN per attempt
  EXPECT_EQ(fins, 100u);  // each attempt closes
}

TEST(TraceAnomalies, SlowlorisPacketsAreTiny) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectSlowloris(trace, 0, 300 * kMilli, 40);
  std::size_t tiny = 0;
  for (const Packet& p : trace.packets) {
    if (p.size_bytes <= 80) ++tiny;
  }
  EXPECT_GE(double(tiny) / double(trace.packets.size()), 0.95);
}

TEST(TraceAnomalies, CompletedFlowsHaveSynAndFin) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectCompletedFlows(trace, 0, 200 * kMilli, 50);
  std::unordered_map<FlowKey, int, FlowKeyHasher> flags;
  for (const Packet& p : trace.packets) {
    if (p.tcp_flags & kTcpSyn) flags[p.Key(FlowKeyKind::kFiveTuple)] |= 1;
    if (p.tcp_flags & kTcpFin) flags[p.Key(FlowKeyKind::kFiveTuple)] |= 2;
  }
  EXPECT_EQ(flags.size(), 50u);
  for (const auto& [key, f] : flags) {
    EXPECT_EQ(f, 3) << "flow missing SYN or FIN";
  }
}

TEST(TraceAnomalies, ConnectionFloodIsOneActorManyConns) {
  TraceGenerator gen(SmallConfig());
  Trace trace;
  gen.InjectConnectionFlood(trace, 0, 100 * kMilli, 250);
  const FlowKey actor = gen.injected()[0].victim_or_actor;
  std::unordered_set<std::uint64_t> conns;
  for (const Packet& p : trace.packets) {
    EXPECT_EQ(p.Key(FlowKeyKind::kSrcIp), actor);
    EXPECT_EQ(p.tcp_flags, kTcpSyn);
    conns.insert(p.ft.Hash(1));
  }
  EXPECT_EQ(conns.size(), 250u);
}

TEST(ResourceLedger, TableRendersAllFeatures) {
  ResourceLedger ledger;
  ledger.Charge("alpha", {.stages = {1}, .sram_bytes = 1024, .salus = 1,
                          .vliw = 2, .gateways = 3});
  ledger.Charge("beta", {.stages = {2, 3}, .sram_bytes = 2048, .salus = 2});
  const std::string table = ledger.ToTable();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("Total"), std::string::npos);
  EXPECT_NE(table.find("3072"), std::string::npos);  // summed SRAM
}

TEST(FlowKeyRendering, ToStringDistinguishesKinds) {
  FiveTuple t{0x0A000001, 0x0A000002, 80, 443, 6};
  const std::string five = FlowKey(FlowKeyKind::kFiveTuple, t).ToString();
  const std::string src = FlowKey(FlowKeyKind::kSrcIp, t).ToString();
  EXPECT_NE(five, src);
  EXPECT_NE(five.find("5t:"), std::string::npos);
  EXPECT_NE(src.find("src:"), std::string::npos);
  EXPECT_NE(t.ToString().find("10.0.0.1"), std::string::npos);
}

TEST(ByteValueApp, SumBytesEndToEnd) {
  // A 1400-byte elephant among 64-byte mice, detected by byte volume.
  Trace trace;
  for (int i = 0; i < 100; ++i) {
    Packet big;
    big.ft = {1, 9, 10, 80, 17};
    big.size_bytes = 1'400;
    big.ts = Nanos(i) * kMilli;
    trace.packets.push_back(big);
    Packet small;
    small.ft = {2, std::uint32_t(100 + i % 20), 10, 80, 17};
    small.size_bytes = 64;
    small.ts = Nanos(i) * kMilli + kMicro;
    trace.packets.push_back(small);
  }
  trace.SortByTime();

  const QueryDef def = QueryBuilder("volume")
                           .KeyBy(FlowKeyKind::kDstIp)
                           .SumBytes()
                           .Threshold(100'000)
                           .Build();
  auto app = std::make_shared<QueryAdapter>(def, 1024);
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  const RunResult result = RunOmniWindow(
      trace, app, RunConfig::Make(spec),
      [&](TableView t) { return app->Detect(t); });
  const FlowKey elephant(FlowKeyKind::kDstIp, FiveTuple{.dst_ip = 9});
  EXPECT_TRUE(result.AllDetected().contains(elephant));
  for (const auto& w : result.windows) {
    for (const FlowKey& key : w.detected) {
      EXPECT_EQ(key, elephant);  // mice never cross 100 KB
    }
  }
}

TEST(EmptyTraffic, NoWindowsNoCrash) {
  Trace empty;
  const QueryDef def = QueryBuilder("q")
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(1)
                           .Build();
  auto app = std::make_shared<QueryAdapter>(def, 64);
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = 100 * kMilli;
  spec.subwindow_size = 50 * kMilli;
  const RunResult result = RunOmniWindow(
      empty, app, RunConfig::Make(spec),
      [&](TableView t) { return app->Detect(t); });
  EXPECT_EQ(result.data_plane.packets_measured, 1u);  // the sentinel only
  for (const auto& w : result.windows) {
    EXPECT_TRUE(w.detected.empty());
  }
}

TEST(SingleSubwindowWindows, WEquals1EmitsEverySubWindow) {
  Trace trace;
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.ft = {1, 2, 3, 4, 17};
    p.ts = Nanos(i) * kMilli;
    trace.packets.push_back(p);
  }
  const QueryDef def = QueryBuilder("q")
                           .KeyBy(FlowKeyKind::kDstIp)
                           .Count()
                           .Threshold(1)
                           .Build();
  auto app = std::make_shared<QueryAdapter>(def, 64);
  WindowSpec spec;
  spec.type = WindowType::kTumbling;
  spec.window_size = spec.subwindow_size = 50 * kMilli;  // W = 1
  const RunResult result = RunOmniWindow(
      trace, app, RunConfig::Make(spec),
      [&](TableView t) { return app->Detect(t); });
  EXPECT_GE(result.windows.size(), 5u);
  for (const auto& w : result.windows) {
    EXPECT_EQ(w.span.count(), 1u);
  }
}

TEST(WindowedScoring, OverlapMatchingPicksBestWindow) {
  // Truth window [100, 200); two candidate windows [0, 150) and [150, 300):
  // the first overlaps 50, the second 50 — ties break to the first found,
  // but a [90, 210) window must win over both.
  FiveTuple t{1, 0, 0, 0, 0};
  const FlowKey key(FlowKeyKind::kSrcIp, t);
  std::vector<BaselineWindowResult> truth{{100, 200, {key}}};
  std::vector<BaselineWindowResult> got{
      {0, 150, {}}, {90, 210, {key}}, {150, 300, {}}};
  const PrecisionRecall pr = WindowedPrecisionRecall(got, truth);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

}  // namespace
}  // namespace ow
