// Event sinks for the trace generator. Consumers (graph builders, counters,
// log writers) subscribe to the event stream instead of materializing the
// whole trace, so memory stays bounded by the aggregates, not the trace.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/dhcp.hpp"
#include "dns/log_record.hpp"

namespace dnsembed::trace {

/// One (sampled) flow record from the campus edge, for §7.2.2.
struct NetflowRecord {
  std::int64_t timestamp = 0;
  std::string host;      // device id
  dns::Ipv4 dst_ip{};
  std::uint16_t dst_port = 0;
  std::uint32_t bytes = 0;

  friend bool operator==(const NetflowRecord&, const NetflowRecord&) = default;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// One joined DNS query/response event. The entry is valid only during
  /// the call: the generator refills one entry in place for every event,
  /// so a sink copies whatever it keeps (a string, not a view into it).
  virtual void on_dns(const dns::LogEntry& entry) = 0;

  /// One flow record (only when TraceConfig::emit_netflow).
  virtual void on_flow(const NetflowRecord& /*record*/) {}

  /// One DHCP lease. All leases are emitted BEFORE any DNS/flow event, so
  /// sinks that need device-to-IP mapping (e.g. packetizers) can build
  /// their own table up front.
  virtual void on_dhcp(const dns::DhcpLease& /*lease*/) {}
};

/// Collects everything into vectors (tests and small runs).
class CollectingSink final : public TraceSink {
 public:
  void on_dns(const dns::LogEntry& entry) override { dns_.push_back(entry); }
  void on_flow(const NetflowRecord& record) override { flows_.push_back(record); }
  void on_dhcp(const dns::DhcpLease& lease) override { leases_.push_back(lease); }

  const std::vector<dns::LogEntry>& dns() const noexcept { return dns_; }
  const std::vector<NetflowRecord>& flows() const noexcept { return flows_; }
  const std::vector<dns::DhcpLease>& leases() const noexcept { return leases_; }

  std::vector<dns::LogEntry>& mutable_dns() noexcept { return dns_; }

 private:
  std::vector<dns::LogEntry> dns_;
  std::vector<NetflowRecord> flows_;
  std::vector<dns::DhcpLease> leases_;
};

/// Fans one event stream out to several sinks.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_{std::move(sinks)} {}

  void on_dns(const dns::LogEntry& entry) override {
    for (auto* s : sinks_) s->on_dns(entry);
  }
  void on_flow(const NetflowRecord& record) override {
    for (auto* s : sinks_) s->on_flow(record);
  }
  void on_dhcp(const dns::DhcpLease& lease) override {
    for (auto* s : sinks_) s->on_dhcp(lease);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace dnsembed::trace
