// Fluent query construction (Sonata-style declarative surface).
//
// Sonata expresses telemetry tasks as dataflow pipelines
// (filter → key → distinct/reduce → threshold); QueryBuilder provides that
// surface over QueryDef so applications read like the paper's queries:
//
//   QueryDef q = QueryBuilder("syn_flood")
//                    .Filter(IsSynPacket)
//                    .KeyBy(FlowKeyKind::kDstIp)
//                    .Count()
//                    .Threshold(120)
//                    .Build();
//
// Build() validates the pipeline (distinct needs an element projection,
// exactly one aggregate, non-zero threshold).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

#include "src/telemetry/query.h"

namespace ow {

class QueryBuilder {
 public:
  explicit QueryBuilder(std::string name) { def_.name = std::move(name); }

  /// Keep only packets matching `pred` (composes by AND).
  QueryBuilder& Filter(std::function<bool(const Packet&)> pred) {
    if (!def_.filter) {
      def_.filter = std::move(pred);
    } else {
      auto first = def_.filter;
      def_.filter = [first, second = std::move(pred)](const Packet& p) {
        return first(p) && second(p);
      };
    }
    return *this;
  }

  /// Group by this flowkey projection.
  QueryBuilder& KeyBy(FlowKeyKind kind) {
    def_.key_kind = kind;
    return *this;
  }

  /// Aggregate: count matching packets per key.
  QueryBuilder& Count() {
    SetAggregate(QueryAggregate::kCount);
    return *this;
  }

  /// Aggregate: sum packet bytes per key.
  QueryBuilder& SumBytes() {
    SetAggregate(QueryAggregate::kSumBytes);
    return *this;
  }

  /// Aggregate: count distinct elements per key, where `element` projects
  /// the counted value from each packet.
  QueryBuilder& Distinct(std::function<std::uint64_t(const Packet&)> element) {
    SetAggregate(QueryAggregate::kDistinct);
    def_.element = std::move(element);
    return *this;
  }

  /// Report keys whose aggregate reaches `value`.
  QueryBuilder& Threshold(std::uint64_t value) {
    def_.threshold = value;
    return *this;
  }

  /// Validate and return the compiled definition.
  QueryDef Build() const {
    if (!have_aggregate_) {
      throw std::logic_error("QueryBuilder(" + def_.name +
                             "): an aggregate (Count/SumBytes/Distinct) is "
                             "required");
    }
    if (def_.aggregate == QueryAggregate::kDistinct && !def_.element) {
      throw std::logic_error("QueryBuilder(" + def_.name +
                             "): Distinct needs an element projection");
    }
    if (def_.threshold == 0) {
      throw std::logic_error("QueryBuilder(" + def_.name +
                             "): threshold must be > 0");
    }
    return def_;
  }

 private:
  void SetAggregate(QueryAggregate agg) {
    if (have_aggregate_) {
      throw std::logic_error("QueryBuilder(" + def_.name +
                             "): aggregate already set");
    }
    have_aggregate_ = true;
    def_.aggregate = agg;
  }

  QueryDef def_;
  bool have_aggregate_ = false;
};

// Common packet predicates and element projections for building queries.
namespace predicates {

inline bool Tcp(const Packet& p) { return p.ft.proto == 6; }
inline bool Udp(const Packet& p) { return p.ft.proto == 17; }
inline bool Syn(const Packet& p) {
  return Tcp(p) && (p.tcp_flags & kTcpSyn) && !(p.tcp_flags & kTcpAck);
}
inline bool Fin(const Packet& p) {
  return Tcp(p) && (p.tcp_flags & kTcpFin);
}
inline bool Rst(const Packet& p) {
  return Tcp(p) && (p.tcp_flags & kTcpRst);
}

/// Predicate factory: destination port equals `port`.
inline std::function<bool(const Packet&)> DstPort(std::uint16_t port) {
  return [port](const Packet& p) { return p.ft.dst_port == port; };
}
/// Predicate factory: packet size at most `bytes`.
inline std::function<bool(const Packet&)> MaxSize(std::uint16_t bytes) {
  return [bytes](const Packet& p) { return p.size_bytes <= bytes; };
}

}  // namespace predicates

namespace elements {

inline std::uint64_t SrcIp(const Packet& p) {
  return HashValue(p.ft.src_ip, 0x51CE1E11ull);
}
inline std::uint64_t DstIp(const Packet& p) {
  return HashValue(p.ft.dst_ip, 0xE1E83A17ull);
}
inline std::uint64_t DstPort(const Packet& p) {
  return HashValue(p.ft.dst_port, 0xD057F087ull);
}
inline std::uint64_t SrcPort(const Packet& p) {
  return HashValue(p.ft.src_port, 0x51C70087ull);
}
inline std::uint64_t Connection(const Packet& p) {
  return p.ft.Hash(0xC011EC7ull);
}

}  // namespace elements

}  // namespace ow
