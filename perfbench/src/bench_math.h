// Arithmetic of the OmniWindow benchmark: percentiles under the
// ten-samples-beyond rule, the expected-window count of a trace, the exact
// recount a window is checked against, the order-independent window digest,
// and span self time. Kept apart from the workload driver so
// tests/bench_math_test.cpp can pin each rule down on small inputs.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/flowkey.h"
#include "src/common/metrics.h"
#include "src/core/flowkey_tracker.h"
#include "src/core/window.h"
#include "src/trace/trace.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `v`. Returns 0 for an
/// empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// True when `n` samples leave at least ten samples above the p-th
/// percentile (p in percent), the rule every reported percentile obeys.
bool PercentileHasTail(std::size_t n, double p);

/// Sliding/tumbling windows a switch must emit for a trace whose packets
/// span [first_ts, last_ts]. Sub-windows start at the timeout signal's first
/// aligned boundary (first_ts rounded down to a sub-window); every window
/// lies wholly inside the sub-windows the trace touches.
std::size_t ExpectedWindowsPerSwitch(ow::Nanos first_ts, ow::Nanos last_ts,
                                     const ow::WindowSpec& spec);

/// Exact per-sub-window flow counts of a trace as the ingress switch numbers
/// sub-windows, used to recount any window's packets after timing stops.
///
/// It also models the ingress switch's flowkey tracker (paper Algorithm 1,
/// src/core/flowkey_tracker.h): every sub-window starts from a reset tracker
/// region, and a flow whose first packet in the sub-window the region's
/// Bloom filter already reports as seen (a false positive) is never
/// enumerated, so none of its packets in that sub-window reach the
/// controller. That loss is the paper's residual error; Reported() is the
/// recount with it taken out, which an intact window mechanism reproduces
/// exactly.
class Recount {
 public:
  Recount(const ow::Trace& trace, const ow::WindowSpec& spec,
          ow::FlowKeyKind kind, const ow::FlowkeyTrackerConfig& tracker);

  /// Exact per-flow counts of the window covering sub-windows `span`
  /// (sub-windows past the trace's last packet count as empty).
  ow::FlowCounts Window(ow::SubWindowSpan span) const;

  /// Window() minus the flows the tracker loses in each sub-window.
  ow::FlowCounts Reported(ow::SubWindowSpan span) const;

 private:
  ow::FlowCounts Sum(ow::SubWindowSpan span, bool drop_lost) const;

  std::vector<ow::FlowCounts> sub_;
  /// Flows the tracker loses, per sub-window.
  std::vector<std::unordered_set<ow::FlowKey, ow::FlowKeyHasher>> lost_;
};

struct CountError {
  std::uint64_t abs_err = 0;  ///< sum over flows of |got - want|
  std::uint64_t want = 0;     ///< sum over flows of want
};

/// Per-flow error of `got` against `want`, over the union of their keys.
CountError CompareCounts(const ow::FlowCounts& got, const ow::FlowCounts& want);

/// abs_err / want in parts per million (0 when want is 0).
double ErrorPpm(const CountError& e);

/// One (key, count) entry's share of a window digest. A window's digest is
/// the sum over its entries, so a table walked in any order digests alike.
std::uint64_t DigestEntry(const ow::FlowKey& key, std::uint64_t count);

/// A closed interval on the steady clock, in nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers (overlapping children count once; child time
/// outside the parent does not count).
std::uint64_t SelfTimeNs(Interval parent, std::vector<Interval> children);

}  // namespace perfbench
