#include "src/net/network.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/common/snapshot.h"
#include "src/obs/obs.h"

namespace ow {

namespace {

/// Sentinel for "no pending work / no horizon constraint". Far enough from
/// the Nanos ceiling that adding any link lookahead cannot overflow.
constexpr Nanos kNeverNs = std::numeric_limits<Nanos>::max() / 4;

/// Events one RunBatch slice may dispatch before the switch republishes its
/// committed time, so an upstream switch pipelines into its downstream
/// shards instead of running its whole backlog before publishing progress.
constexpr std::size_t kBatchEvents = 1024;

}  // namespace

Switch* Network::AddSwitch(SwitchTimings timings, Nanos clock_deviation) {
  const std::size_t idx = nodes_.size();
  nodes_.push_back(
      std::make_unique<Node>(clock_, clock_deviation, int(idx), timings));
  return nodes_.back()->sw.get();
}

LocalClock& Network::ClockOf(const Switch* sw) {
  for (auto& node : nodes_) {
    if (node->sw.get() == sw) return node->clock;
  }
  throw std::invalid_argument("Network::ClockOf: unknown switch");
}

std::size_t Network::NodeIndexOf(const Switch* sw, const char* where) const {
  const std::size_t idx = std::size_t(sw->id());
  if (idx < nodes_.size() && nodes_[idx]->sw.get() == sw) return idx;
  throw std::invalid_argument(std::string(where) +
                              ": switch not owned by this network");
}

int Network::ResolvePort(Switch* a, int port, const char* where) const {
  if (port == kAutoPort) {
    int p = 0;
    while (a->HasPortHandler(p)) ++p;
    return p;
  }
  if (port < 0) {
    throw std::invalid_argument(std::string(where) + ": negative port");
  }
  if (a->HasPortHandler(port)) {
    throw std::logic_error(std::string(where) + ": switch " +
                           std::to_string(a->id()) + " port " +
                           std::to_string(port) + " already connected");
  }
  return port;
}

Link* Network::Connect(Switch* a, Switch* b, LinkParams params,
                       std::optional<std::uint64_t> seed, int port) {
  if (params.latency <= 0) {
    // Zero-latency inter-switch links would let a switch schedule work for
    // a neighbor at the very timestamp the neighbor may already have
    // committed past (its horizon would not advance beyond the sender's).
    throw std::invalid_argument(
        "Network::Connect: inter-switch links need positive latency");
  }
  const int egress = ResolvePort(a, port, "Network::Connect");
  Link::Deliver deliver;
  if (a == b) {
    // Self-loop: deliver straight into the shared-seq wire path. Staging a
    // switch's own output would defer it past timestamps the switch may
    // already have batched beyond, and a self-loop never crosses shards.
    deliver = [b](Packet p, Nanos arrival) {
      b->EnqueueFromWire(std::move(p), arrival);
    };
  } else {
    const std::size_t src = NodeIndexOf(a, "Network::Connect");
    const std::size_t dst = NodeIndexOf(b, "Network::Connect");
    auto ep = std::make_unique<WireEndpoint>();
    ep->dst = b;
    ep->src_node = int(src);
    ep->dst_node = int(dst);
    ep->ordinal = std::uint32_t(nodes_[dst]->ingress.size());
    ep->lookahead = a->timings().pipeline_latency + params.latency;
    WireEndpoint* raw_ep = ep.get();
    nodes_[dst]->ingress.push_back(raw_ep);
    endpoints_.push_back(std::move(ep));
    deliver = [raw_ep](Packet p, Nanos arrival) {
      raw_ep->Deliver(std::move(p), arrival);
    };
  }
  auto link = std::make_unique<Link>(params, std::move(deliver),
                                     seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(egress,
                    [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), b->id(), egress});
  links_.push_back(std::move(link));
  return raw;
}

Link* Network::ConnectToSink(Switch* a, LinkParams params, Link::Deliver sink,
                             std::optional<std::uint64_t> seed, int port) {
  const int egress = ResolvePort(a, port, "Network::ConnectToSink");
  auto link =
      std::make_unique<Link>(params, std::move(sink), seed.value_or(DeriveLinkSeed()));
  Link* raw = link.get();
  a->SetPortHandler(egress,
                    [raw](const Packet& p, Nanos now) { raw->Transmit(p, now); });
  link_infos_.push_back({raw, a->id(), -1, egress});
  links_.push_back(std::move(link));
  return raw;
}

Nanos Network::RunUntilQuiescent(Nanos max_time) {
  const std::size_t nthreads = std::min(parallel_.threads, nodes_.size());
  const Nanos last =
      nthreads <= 1 ? RunOnCaller(max_time) : RunPooled(max_time, nthreads);
  // Every Transmit of this run happened on a sweeping thread the pool join
  // (or the caller itself) orders before this point.
  for (const auto& link : links_) link->FlushObs();
  return last;
}

bool Network::HasPendingThrough(Nanos max_time) const {
  for (const auto& node : nodes_) {
    const Nanos pend = node->sw->EarliestPendingTime();
    if (pend >= 0 && pend <= max_time) return true;
  }
  return false;
}

bool Network::Sweep(std::size_t first, std::size_t stride, Nanos max_time,
                    Nanos& last, obs::Histogram& stalls) {
  // One pass over switches first, first + stride, ... The order of
  // operations inside a node pass is load-bearing:
  //   1. read upstream committed times (acquire) -> horizon;
  //   2. drain the SPSC inboxes. Any arrival at or before the horizon was
  //      pushed before its producer's CT release-advanced past it, so the
  //      acquire read in (1) guarantees the drain sees it — draining
  //      before reading CTs would leave a window where a packet inside
  //      the commit bound is missed.
  //   3. commit staged arrivals <= bound and run, publishing CT between
  //      slices so downstream switches pipeline behind this one;
  //   4. publish pending_min for the pool's termination detection.
  bool worked = false;
  for (std::size_t idx = first; idx < nodes_.size(); idx += stride) {
    Node& node = *nodes_[idx];
    Switch* sw = node.sw.get();
    Nanos h = kNeverNs;
    for (const WireEndpoint* ep : node.ingress) {
      const Nanos up =
          nodes_[std::size_t(ep->src_node)]->ct.load(std::memory_order_acquire);
      const Nanos cand = up >= kNeverNs ? kNeverNs : up + ep->lookahead;
      if (cand < h) h = cand;
    }
    for (WireEndpoint* ep : node.ingress) {
      if (!ep->inbox) continue;
      while (WireMsg* msg = ep->inbox->Front()) {
        // Lower pending_min BEFORE consuming: the termination checker
        // must never observe the queue empty while the packet is not
        // yet visible through this node's pending work.
        if (msg->arrival < node.pending_min.load(std::memory_order_relaxed)) {
          node.pending_min.store(msg->arrival, std::memory_order_release);
        }
        sw->StageFromWire(std::move(msg->packet), msg->arrival, ep->ordinal,
                          msg->tx);
        ep->inbox->PopFront();
        worked = true;
      }
    }
    // An arrival exactly at the horizon is possible (upstream dispatch
    // at its committed time), hence the -1.
    const Nanos bound = std::min(h - 1, max_time);
    bool node_ran = false;
    if (sw->CommitStagedThrough(bound) > 0) worked = true;
    while (true) {
      const std::size_t ran = sw->RunBatch(bound, kBatchEvents);
      if (ran > 0) {
        worked = true;
        node_ran = true;
        if (sw->last_event_time() > last) last = sw->last_event_time();
      }
      const Nanos pend_mid = sw->EarliestPendingTime();
      const Nanos ct_new = std::min(pend_mid < 0 ? kNeverNs : pend_mid, h);
      if (ct_new > node.ct.load(std::memory_order_relaxed)) {
        node.ct.store(ct_new, std::memory_order_release);
      }
      if (ran < kBatchEvents) break;
    }
    const Nanos pend = sw->EarliestPendingTime();
    node.pending_min.store(pend < 0 ? kNeverNs : pend,
                           std::memory_order_release);
    if (!node_ran && pend >= 0 && pend > bound && pend <= max_time) {
      stalls.Record(std::uint64_t(pend - bound));
    }
  }
  return worked;
}

Nanos Network::RunOnCaller(Nanos max_time) {
  obs::Histogram& stalls =
      obs::Global().GetHistogram("net.parallel.horizon_stall_ns");
  // ct = 0 is always a valid lower bound; the sweeps raise it to
  // min(pending, horizon) and it only ever grows from there. Without
  // handoff queues nothing is in flight between sweeps, so the switches'
  // own pending work is the whole termination condition.
  for (auto& node : nodes_) node->ct.store(0, std::memory_order_relaxed);
  Nanos last = -1;
  while (HasPendingThrough(max_time)) Sweep(0, 1, max_time, last, stalls);
  clock_.AdvanceTo(last);
  return last;
}

Nanos Network::RunPooled(Nanos max_time, std::size_t nthreads) {
  // Cross-shard links get an SPSC inbox for this run; same-shard links keep
  // staging directly (producer and consumer share a worker).
  std::vector<std::unique_ptr<SpscQueue<WireMsg>>> queues;
  for (auto& ep : endpoints_) {
    if (std::size_t(ep->src_node) % nthreads !=
        std::size_t(ep->dst_node) % nthreads) {
      queues.push_back(std::make_unique<SpscQueue<WireMsg>>());
      ep->inbox = queues.back().get();
    }
  }
  for (auto& node : nodes_) {
    node->ct.store(0, std::memory_order_relaxed);
    const Nanos pend = node->sw->EarliestPendingTime();
    node->pending_min.store(pend < 0 ? kNeverNs : pend,
                            std::memory_order_relaxed);
  }

  obs::Registry& reg = obs::Global();
  obs::Counter* idle_spins = &reg.GetCounter("net.parallel.idle_spins");
  obs::Histogram& stalls = reg.GetHistogram("net.parallel.horizon_stall_ns");
  std::vector<obs::Counter*> busy(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    busy[i] = &reg.GetCounter("net.parallel.busy_ns.w" + std::to_string(i));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> progress{0};
  std::vector<Nanos> worker_last(nthreads, -1);

  // Quiescent iff nothing is pending within max_time, every handoff queue
  // is drained, and no worker made progress across the double read. The
  // check may rarely pass while work is in flight (the progress bump is
  // published after the work); the caller-thread epilogue below makes that
  // a performance footnote, not a correctness hazard.
  auto quiescent = [&]() -> bool {
    const std::uint64_t p1 = progress.load(std::memory_order_acquire);
    for (const auto& node : nodes_) {
      if (node->pending_min.load(std::memory_order_acquire) <= max_time) {
        return false;
      }
    }
    for (const auto& q : queues) {
      if (q->produced() != q->consumed()) return false;
    }
    return progress.load(std::memory_order_acquire) == p1;
  };

  std::vector<std::thread> workers;
  workers.reserve(nthreads);
  for (std::size_t w = 0; w < nthreads; ++w) {
    workers.emplace_back([&, w] {
      Nanos local_last = -1;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t t0 = obs::NowNs();
        if (Sweep(w, nthreads, max_time, local_last, stalls)) {
          busy[w]->Add(obs::NowNs() - t0);
          progress.fetch_add(1, std::memory_order_release);
        } else {
          idle_spins->Add(1);
          if (quiescent()) {
            done.store(true, std::memory_order_release);
            break;
          }
          std::this_thread::yield();
        }
      }
      worker_last[w] = local_last;
    });
  }
  for (std::thread& t : workers) t.join();

  // Unconditional epilogue: joining the workers is a full synchronization
  // point, so everything they staged/committed is visible here. Stage any
  // residue a false-positive termination left in the inboxes (the
  // canonical commit order makes these late commits land exactly where
  // they belong) and let the caller-thread sweep finish the run.
  for (auto& ep : endpoints_) {
    if (!ep->inbox) continue;
    while (WireMsg* msg = ep->inbox->Front()) {
      nodes_[std::size_t(ep->dst_node)]->sw->StageFromWire(
          std::move(msg->packet), msg->arrival, ep->ordinal, msg->tx);
      ep->inbox->PopFront();
    }
    ep->inbox = nullptr;
  }

  Nanos last = -1;
  for (const Nanos wl : worker_last) {
    if (wl > last) last = wl;
  }
  clock_.AdvanceTo(last);
  Nanos tail;
  {
    // Time the mop-up: a hot epilogue means termination detection fired
    // early and serialized real work. (All net.parallel.* instruments are
    // wall-clock/schedule dependent; A/B comparisons exclude the prefix.)
    obs::ScopedTimerNs epilogue_timer(
        reg.GetCounter("net.parallel.epilogue_ns"));
    tail = RunOnCaller(max_time);
  }
  return std::max(last, tail);
}

Switch::ForwardingPolicy MakeEcmpPolicy(std::vector<int> ports,
                                        std::uint64_t seed) {
  if (ports.empty()) {
    throw std::invalid_argument("MakeEcmpPolicy: no member ports");
  }
  return [ports = std::move(ports), seed](const Packet& p, Nanos) -> int {
    const FiveTuple& ft = p.ft;
    if (ft.src_ip == 0 && ft.dst_ip == 0 && ft.src_port == 0 &&
        ft.dst_port == 0 && ft.proto == 0) {
      return kFloodEgress;  // sentinel / signal packet: reach every path
    }
    const std::uint64_t h = p.Key(FlowKeyKind::kFiveTuple).Hash(seed);
    return ports[h % ports.size()];
  };
}

void Network::Save(SnapshotWriter& w) const {
  w.Section(snap::kNetwork);
  w.I64(clock_.Now());
  w.Size(nodes_.size());
  w.Size(links_.size());
  w.Size(endpoints_.size());
  for (const auto& link : links_) link->Save(w);
  for (const auto& ep : endpoints_) w.U64(ep->tx);
  for (const auto& node : nodes_) node->sw->Save(w);
}

void Network::Load(SnapshotReader& r) {
  r.Section(snap::kNetwork);
  clock_.AdvanceTo(r.I64());
  const std::size_t nodes = r.Size();
  const std::size_t links = r.Size();
  const std::size_t endpoints = r.Size();
  CheckShape(snap::kNetwork, "Network", "node count", nodes_.size(), nodes);
  CheckShape(snap::kNetwork, "Network", "link count", links_.size(), links);
  CheckShape(snap::kNetwork, "Network", "endpoint count", endpoints_.size(),
             endpoints);
  for (const auto& link : links_) link->Load(r);
  for (const auto& ep : endpoints_) ep->tx = r.U64();
  for (const auto& node : nodes_) node->sw->Load(r);
}

}  // namespace ow
