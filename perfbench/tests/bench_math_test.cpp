// Tests of the benchmark's own arithmetic (perfbench/src/bench_math.h).
#include "perfbench/src/bench_math.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using ow::kMilli;

ow::Packet At(ow::Nanos ts, std::uint16_t src_port) {
  ow::Packet p;
  p.ts = ts;
  p.ft.src_ip = 0x0A000001;
  p.ft.dst_ip = 0x0A000002;
  p.ft.src_port = src_port;
  p.ft.dst_port = 80;
  p.ft.proto = 6;
  return p;
}

TEST(BenchMath, QuantileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({0, 10}, 0.9), 9.0);
}

TEST(BenchMath, PercentileNeedsTenSamplesBeyond) {
  EXPECT_FALSE(PercentileHasTail(99, 90));
  EXPECT_TRUE(PercentileHasTail(100, 90));
  EXPECT_FALSE(PercentileHasTail(19, 50));
  EXPECT_TRUE(PercentileHasTail(20, 50));
  // p99 needs 1,000 samples: beyond every run's slide-gap count, so p90
  // is the highest the benchmark reports.
  EXPECT_FALSE(PercentileHasTail(999, 99));
  EXPECT_TRUE(PercentileHasTail(1000, 99));
}

TEST(BenchMath, ExpectedWindowsFollowTheSlidingGeometry) {
  ow::WindowSpec spec;
  spec.type = ow::WindowType::kSliding;
  spec.window_size = 500 * kMilli;
  spec.slide = 100 * kMilli;
  spec.subwindow_size = 100 * kMilli;
  // A 6 s trace touches sub-windows 0..59: windows [0,4] .. [55,59].
  EXPECT_EQ(ExpectedWindowsPerSwitch(20'000, 6000 * kMilli - 1, spec), 56u);
  // The first boundary is the first packet rounded down to a sub-window.
  EXPECT_EQ(ExpectedWindowsPerSwitch(150 * kMilli, 650 * kMilli, spec), 2u);
  EXPECT_EQ(ExpectedWindowsPerSwitch(0, 399 * kMilli, spec), 0u);
  spec.slide = 200 * kMilli;
  EXPECT_EQ(ExpectedWindowsPerSwitch(0, 6000 * kMilli - 1, spec), 28u);
  spec.type = ow::WindowType::kTumbling;
  EXPECT_EQ(ExpectedWindowsPerSwitch(0, 6000 * kMilli - 1, spec), 12u);
}

TEST(BenchMath, RecountSumsSubWindowsOfTheSpan) {
  ow::WindowSpec spec;
  spec.subwindow_size = 100 * kMilli;
  ow::Trace trace;
  trace.packets = {At(10 * kMilli, 1), At(20 * kMilli, 1), At(120 * kMilli, 2),
                   At(250 * kMilli, 1)};
  const Recount rc(trace, spec, ow::FlowKeyKind::kFiveTuple, {});
  const ow::FlowKey a(ow::FlowKeyKind::kFiveTuple, At(0, 1).ft);
  const ow::FlowKey b(ow::FlowKeyKind::kFiveTuple, At(0, 2).ft);
  ow::FlowCounts w01 = rc.Window({0, 1});
  EXPECT_EQ(w01.size(), 2u);
  EXPECT_EQ(w01[a], 2u);
  EXPECT_EQ(w01[b], 1u);
  ow::FlowCounts w12 = rc.Window({1, 2});
  EXPECT_EQ(w12[a], 1u);
  EXPECT_EQ(w12[b], 1u);
  EXPECT_TRUE(rc.Window({5, 9}).empty());
}

TEST(BenchMath, ReportedDropsWholeFlowsTheTrackerBloomLoses) {
  ow::WindowSpec spec;
  spec.subwindow_size = 100 * kMilli;
  // A 64-bit, one-hash Bloom filter: 200 distinct flows in one sub-window
  // must collide, and each collision loses that flow's sub-window.
  ow::FlowkeyTrackerConfig tiny;
  tiny.bloom_bits = 64;
  tiny.bloom_hashes = 1;
  ow::Trace trace;
  for (std::uint16_t port = 1; port <= 200; ++port) {
    trace.packets.push_back(At(port * 100'000, port));
    trace.packets.push_back(At(50 * kMilli + port * 100'000, port));
  }
  const Recount rc(trace, spec, ow::FlowKeyKind::kFiveTuple, tiny);
  const ow::FlowCounts exact = rc.Window({0, 0});
  const ow::FlowCounts reported = rc.Reported({0, 0});
  ASSERT_EQ(exact.size(), 200u);
  ASSERT_LT(reported.size(), exact.size());
  // An independent tracker, fed the same packets, sees exactly the lost
  // flows as duplicates on their first packet.
  ow::FlowkeyTracker tracker(tiny);
  std::size_t lost = 0;
  for (std::uint16_t port = 1; port <= 200; ++port) {
    const ow::FlowKey key(ow::FlowKeyKind::kFiveTuple, At(0, port).ft);
    const bool seen = tracker.Track(0, key) == ow::FlowkeyTracker::Outcome::kSeen;
    lost += seen;
    EXPECT_EQ(reported.contains(key), !seen);
    if (!seen) {
      EXPECT_EQ(reported.at(key), 2u);  // whole flows, never partial
    }
  }
  EXPECT_EQ(reported.size(), 200u - lost);
  // The default tracker loses nothing on so few flows.
  const Recount wide(trace, spec, ow::FlowKeyKind::kFiveTuple, {});
  EXPECT_EQ(wide.Reported({0, 0}), wide.Window({0, 0}));
}

TEST(BenchMath, DigestIsOrderIndependentAndCountSensitive) {
  const ow::FlowKey a(ow::FlowKeyKind::kFiveTuple, At(0, 1).ft);
  const ow::FlowKey b(ow::FlowKeyKind::kFiveTuple, At(0, 2).ft);
  auto digest = [](const ow::FlowCounts& counts) {
    std::uint64_t d = 0;
    for (const auto& [key, count] : counts) d += DigestEntry(key, count);
    return d;
  };
  const ow::FlowCounts x{{a, 3}, {b, 5}};
  EXPECT_EQ(digest(x), DigestEntry(b, 5) + DigestEntry(a, 3));
  // Moving one packet between two flows changes the digest.
  EXPECT_NE(digest(x), digest({{a, 4}, {b, 4}}));
  EXPECT_NE(digest(x), digest({{a, 3}}));
}

TEST(BenchMath, ErrorSumCoversTheUnionOfKeys) {
  const ow::FlowKey a(ow::FlowKeyKind::kFiveTuple, At(0, 1).ft);
  const ow::FlowKey b(ow::FlowKeyKind::kFiveTuple, At(0, 2).ft);
  const ow::FlowKey c(ow::FlowKeyKind::kFiveTuple, At(0, 3).ft);
  const ow::FlowCounts want{{a, 10}, {b, 5}};
  const ow::FlowCounts got{{a, 7}, {c, 2}};  // a short 3, b missing 5, c extra 2
  const CountError e = CompareCounts(got, want);
  EXPECT_EQ(e.abs_err, 10u);
  EXPECT_EQ(e.want, 15u);
  EXPECT_DOUBLE_EQ(ErrorPpm(e), 10.0 / 15.0 * 1e6);
  EXPECT_EQ(CompareCounts(want, want).abs_err, 0u);
  EXPECT_DOUBLE_EQ(ErrorPpm({}), 0.0);
}

TEST(BenchMath, SelfTimeSubtractsTheUnionOfChildren) {
  EXPECT_EQ(SelfTimeNs({100, 200}, {}), 100u);
  EXPECT_EQ(SelfTimeNs({100, 200}, {{110, 120}, {150, 170}}), 70u);
  // Overlapping children (concurrent observer calls) count once.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{110, 150}, {120, 160}}), 50u);
  // Child time outside the parent does not count.
  EXPECT_EQ(SelfTimeNs({100, 200}, {{50, 120}, {190, 260}}), 70u);
  // Nested child intervals are covered by the outer one.
  EXPECT_EQ(SelfTimeNs({0, 100}, {{10, 90}, {20, 30}}), 20u);
  EXPECT_EQ(SelfTimeNs({0, 100}, {{0, 100}}), 0u);
}

}  // namespace
}  // namespace perfbench
