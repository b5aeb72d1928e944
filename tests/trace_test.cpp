// Tests for the synthetic campus trace: name generators, ground truth,
// determinism, and the structural/behavioral properties the detection
// pipeline depends on (cohort overlap, shared IPs, beacon regularity,
// NXDOMAIN patterns, DHCP coverage).
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "dns/public_suffix.hpp"
#include "dns/punycode.hpp"
#include "dns/capture_io.hpp"
#include "trace/generator.hpp"
#include "trace/pcap_sink.hpp"

#include <sstream>
#include "trace/namegen.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace dnsembed::trace {
namespace {

TraceConfig small_config() {
  TraceConfig config;
  config.seed = 7;
  config.hosts = 60;
  config.days = 2;
  config.benign_sites = 300;
  config.third_party_pool = 60;
  config.interests_per_host = 40;
  config.polling_apps = 8;
  config.malware_families = 6;  // one of each kind
  config.min_victims = 4;
  config.max_victims = 12;
  config.dga_domains_per_day = 12;
  config.spam_domains_per_family = 15;
  return config;
}

TEST(NameGen, BenignNamesAreValidE2lds) {
  util::Rng rng{1};
  const auto& psl = dns::PublicSuffixList::builtin();
  for (int i = 0; i < 200; ++i) {
    const std::string name = benign_site_name(rng);
    EXPECT_EQ(psl.e2ld(name), name) << name;
  }
}

TEST(NameGen, SpamNamesLookLikeTable1) {
  util::Rng rng{2};
  for (int i = 0; i < 100; ++i) {
    const std::string name = spam_name(rng);
    EXPECT_TRUE(util::ends_with(name, ".bid")) << name;
    const std::string label = name.substr(0, name.size() - 4);
    EXPECT_GE(label.size(), 5u);
    EXPECT_LE(label.size(), 30u);
  }
}

TEST(NameGen, DgaNamesAreDeterministicPerFamilyAndDay) {
  const std::string a = dga_name(123, 5, 7);
  const std::string b = dga_name(123, 5, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(dga_name(123, 5, 8), a);
  EXPECT_NE(dga_name(123, 6, 7), a);
  EXPECT_NE(dga_name(124, 5, 7), a);
  EXPECT_TRUE(util::ends_with(a, ".ws"));
  EXPECT_EQ(a.size(), 11u + 3u);
  // DGA names have near-random letter distribution: entropy above word-mash.
  util::Rng rng{3};
  double dga_entropy = 0.0;
  double spam_entropy = 0.0;
  for (int i = 0; i < 100; ++i) {
    dga_entropy += util::shannon_entropy(dga_name(9, 0, static_cast<std::size_t>(i)));
    spam_entropy += util::shannon_entropy(spam_name(rng));
  }
  EXPECT_GT(dga_entropy, spam_entropy);
}


TEST(NameGen, IdnNamesAreValidAceLabels) {
  util::Rng rng{6};
  const auto& psl = dns::PublicSuffixList::builtin();
  for (int i = 0; i < 100; ++i) {
    const std::string name = idn_site_name(rng);
    EXPECT_TRUE(util::starts_with(name, "xn--")) << name;
    EXPECT_EQ(psl.e2ld(name), name) << name;
    // The ACE label decodes back to CJK code points.
    const std::size_t dot = name.find('.');
    const auto decoded = dns::punycode_decode(name.substr(4, dot - 4));
    ASSERT_TRUE(decoded.has_value()) << name;
    for (const auto cp : *decoded) {
      EXPECT_GE(cp, 0x4E00u);
      EXPECT_LT(cp, 0x9FA5u);
    }
  }
}

TEST(NameGen, TypoChangesExactlyOneLabelChar) {
  util::Rng rng{4};
  for (int i = 0; i < 50; ++i) {
    const std::string name = "example.com";
    const std::string typo = typo_of(name, rng);
    EXPECT_TRUE(util::ends_with(typo, ".com"));
    EXPECT_EQ(typo.size(), name.size());
    int diffs = 0;
    for (std::size_t k = 0; k < name.size(); ++k) {
      if (typo[k] != name[k]) ++diffs;
    }
    EXPECT_LE(diffs, 1);
  }
}

TEST(GroundTruthTest, TracksLabelsAndFamilies) {
  GroundTruth truth;
  truth.add_benign("good.com");
  MalwareFamily family;
  family.id = 0;
  family.kind = FamilyKind::kSpam;
  family.domains = {"bad.bid", "worse.bid"};
  truth.add_family(family);
  EXPECT_TRUE(truth.is_malicious("bad.bid"));
  EXPECT_FALSE(truth.is_malicious("good.com"));
  EXPECT_TRUE(truth.is_known("good.com"));
  EXPECT_FALSE(truth.is_known("unknown.com"));
  EXPECT_EQ(truth.family_of("worse.bid"), 0u);
  EXPECT_FALSE(truth.family_of("good.com").has_value());
  EXPECT_EQ(truth.malicious_count(), 2u);
  EXPECT_EQ(truth.benign_count(), 1u);
  MalwareFamily dup;
  dup.id = 1;
  dup.domains = {"bad.bid"};
  EXPECT_THROW(truth.add_family(dup), std::invalid_argument);
}

class GeneratedTrace : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sink_ = new CollectingSink;
    result_ = new TraceResult{generate_trace(small_config(), *sink_)};
  }
  static void TearDownTestSuite() {
    delete sink_;
    delete result_;
    sink_ = nullptr;
    result_ = nullptr;
  }

  static CollectingSink* sink_;
  static TraceResult* result_;
};

CollectingSink* GeneratedTrace::sink_ = nullptr;
TraceResult* GeneratedTrace::result_ = nullptr;

TEST_F(GeneratedTrace, ProducesSubstantialTraffic) {
  EXPECT_GT(sink_->dns().size(), 10000u);
  EXPECT_EQ(sink_->dns().size(), result_->dns_events);
  EXPECT_GT(result_->flow_events, 100u);
  EXPECT_GT(result_->nxdomain_events, 100u);
  EXPECT_LT(result_->nxdomain_events, result_->dns_events / 4);
}

TEST_F(GeneratedTrace, TimestampsWithinHorizon) {
  const auto config = small_config();
  const std::int64_t horizon = config.start_time + static_cast<std::int64_t>(config.days) * 86400;
  for (const auto& e : sink_->dns()) {
    EXPECT_GE(e.timestamp, config.start_time);
    // Sessions starting near midnight of the last day may spill past the
    // horizon (a page every 10-120 s for up to ~25 pages).
    EXPECT_LT(e.timestamp, horizon + 7200);
  }
}

TEST_F(GeneratedTrace, AllHostsAppear) {
  std::unordered_set<std::string> hosts;
  for (const auto& e : sink_->dns()) hosts.insert(e.host);
  EXPECT_EQ(hosts.size(), small_config().hosts);
}

TEST_F(GeneratedTrace, GroundTruthCoversAllObservedE2lds) {
  const auto& psl = dns::PublicSuffixList::builtin();
  std::size_t unknown = 0;
  std::unordered_set<std::string> unknown_names;
  for (const auto& e : sink_->dns()) {
    if (e.rcode != dns::RCode::kNoError) continue;  // typos/NX are unlabeled
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    if (!result_->truth.is_known(e2ld)) {
      ++unknown;
      unknown_names.insert(e2ld);
    }
  }
  EXPECT_EQ(unknown, 0u) << "e.g. " << (unknown_names.empty() ? "" : *unknown_names.begin());
}

TEST_F(GeneratedTrace, FiveFamiliesCoverAllKinds) {
  const auto& families = result_->truth.families();
  ASSERT_EQ(families.size(), 6u);
  std::set<FamilyKind> kinds;
  for (const auto& f : families) kinds.insert(f.kind);
  EXPECT_EQ(kinds.size(), 6u);
}

TEST_F(GeneratedTrace, VictimCohortsQueryFamilyDomains) {
  const auto& psl = dns::PublicSuffixList::builtin();
  // host -> set of malicious e2lds queried.
  std::unordered_map<std::string, std::unordered_set<std::string>> queried;
  for (const auto& e : sink_->dns()) {
    if (e.rcode != dns::RCode::kNoError) continue;
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    if (result_->truth.is_malicious(e2ld)) queried[e.host].insert(e2ld);
  }
  for (const auto& family : result_->truth.families()) {
    // Every victim of an active family queried at least one family domain.
    std::size_t active_victims = 0;
    for (const auto& victim : family.victims) {
      const auto it = queried.find(victim);
      if (it == queried.end()) continue;
      for (const auto& d : it->second) {
        if (result_->truth.family_of(d) == family.id) {
          ++active_victims;
          break;
        }
      }
    }
    EXPECT_GT(active_victims, family.victims.size() / 2) << family.name;
    // Non-victims never query C&C domains (stray spam/phishing clicks from
    // non-victims are expected; C&C traffic is victims-only).
    if (family.kind == FamilyKind::kSpam || family.kind == FamilyKind::kPhishing) continue;
    std::unordered_set<std::string> victims{family.victims.begin(), family.victims.end()};
    for (const auto& [host, domains] : queried) {
      if (victims.contains(host)) continue;
      for (const auto& d : domains) {
        EXPECT_NE(result_->truth.family_of(d), family.id)
            << host << " is not a victim of " << family.name << " but queried " << d;
      }
    }
  }
}

TEST_F(GeneratedTrace, FamilyDomainsShareIps) {
  // Spam-family domains must resolve within the family's registered pool.
  const auto& psl = dns::PublicSuffixList::builtin();
  for (const auto& e : sink_->dns()) {
    if (e.rcode != dns::RCode::kNoError || e.addresses.empty()) continue;
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    const auto family_id = result_->truth.family_of(e2ld);
    if (!family_id) continue;
    const auto& family = result_->truth.families()[*family_id];
    for (const auto& ip : e.addresses) {
      EXPECT_NE(std::find(family.ips.begin(), family.ips.end(), ip), family.ips.end())
          << e2ld << " resolved outside its family pool";
    }
  }
}

TEST_F(GeneratedTrace, FastFluxRotatesManyIps) {
  const auto& psl = dns::PublicSuffixList::builtin();
  std::unordered_map<std::string, std::unordered_set<std::uint32_t>> ips_per_domain;
  for (const auto& e : sink_->dns()) {
    if (e.addresses.empty()) continue;
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    const auto family_id = result_->truth.family_of(e2ld);
    if (!family_id) continue;
    if (result_->truth.families()[*family_id].kind != FamilyKind::kFastFlux) continue;
    for (const auto& ip : e.addresses) ips_per_domain[e2ld].insert(ip.value());
  }
  ASSERT_FALSE(ips_per_domain.empty());
  std::size_t max_ips = 0;
  for (const auto& [domain, ips] : ips_per_domain) max_ips = std::max(max_ips, ips.size());
  EXPECT_GT(max_ips, 8u);  // far more addresses than any benign site
}

TEST_F(GeneratedTrace, DgaVictimsEmitNxdomainBursts) {
  // DGA bots try unregistered names: victims of DGA families must produce
  // NXDOMAIN responses for .ws names.
  std::size_t dga_nx = 0;
  for (const auto& e : sink_->dns()) {
    if (e.rcode == dns::RCode::kNxDomain && util::ends_with(e.qname, ".ws")) ++dga_nx;
  }
  EXPECT_GT(dga_nx, 50u);
}

TEST_F(GeneratedTrace, DhcpTableCoversTraceWindow) {
  const auto config = small_config();
  EXPECT_GE(result_->dhcp.lease_count(), config.hosts);
  // Spot-check: each event's host holds some lease at the event time.
  // (Events carry device ids; the DHCP table maps IP+time -> device.)
  // We verify indirectly: the table has a lease for every device id at t=0.
  std::unordered_set<std::string> devices;
  for (const auto& e : sink_->dns()) devices.insert(e.host);
  std::unordered_set<std::string> leased;
  for (std::uint32_t i = 0; i < 100000 && leased.size() < devices.size(); ++i) {
    const auto dev = result_->dhcp.device_for(dns::Ipv4{(10u << 24) | (20u << 16) | i}, 0);
    if (dev) leased.insert(*dev);
  }
  for (const auto& d : devices) {
    EXPECT_TRUE(leased.contains(d)) << d << " has no lease at t=0";
  }
}

TEST_F(GeneratedTrace, NetflowUsesFamilyPorts) {
  std::unordered_map<std::uint16_t, std::size_t> port_counts;
  for (const auto& f : sink_->flows()) ++port_counts[f.dst_port];
  // Benign flows are 443; malicious families use their registered ports.
  for (const auto& family : result_->truth.families()) {
    bool found = false;
    for (const auto& f : sink_->flows()) {
      if (f.dst_port == family.port &&
          std::find(family.ips.begin(), family.ips.end(), f.dst_ip) != family.ips.end()) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no flows for " << family.name;
  }
}


TEST(PcapSink, StreamsPacketsMatchingTheLog) {
  // Small trace through both a collector and the streaming pcap sink; the
  // capture must decode back to the same entry count.
  auto config = small_config();
  config.hosts = 20;
  config.benign_sites = 80;
  config.interests_per_host = 20;
  std::stringstream capture;
  CollectingSink collect;
  PcapStreamSink pcap{capture};
  TeeSink tee{{&collect, &pcap}};
  const auto result = generate_trace(config, tee);
  EXPECT_GT(pcap.packets_written(), result.dns_events);       // >= 1 packet per entry
  EXPECT_LE(pcap.packets_written(), 2 * result.dns_events);

  const auto imported = dns::import_pcap(capture);
  EXPECT_EQ(imported.entries.size(), result.dns_events);
  EXPECT_EQ(imported.stats.malformed, 0u);
  EXPECT_EQ(imported.stats.orphan_responses, 0u);
}

TEST(DhcpEvents, EmittedBeforeTrafficAndMatchResultTable) {
  CollectingSink sink;
  const auto result = generate_trace(small_config(), sink);
  EXPECT_EQ(sink.leases().size(), result.dhcp.lease_count());
  // The sink's leases rebuild an equivalent table.
  dns::DhcpTable rebuilt;
  for (const auto& lease : sink.leases()) rebuilt.add_lease(lease);
  for (const auto& lease : sink.leases()) {
    EXPECT_EQ(rebuilt.device_for(lease.ip, lease.start),
              result.dhcp.device_for(lease.ip, lease.start));
  }
}

TEST(TraceDeterminism, SameSeedSameTrace) {
  CollectingSink a;
  CollectingSink b;
  const auto ra = generate_trace(small_config(), a);
  const auto rb = generate_trace(small_config(), b);
  EXPECT_EQ(ra.dns_events, rb.dns_events);
  ASSERT_EQ(a.dns().size(), b.dns().size());
  for (std::size_t i = 0; i < std::min<std::size_t>(a.dns().size(), 5000); ++i) {
    ASSERT_EQ(a.dns()[i], b.dns()[i]) << "at index " << i;
  }
  EXPECT_EQ(a.flows().size(), b.flows().size());
}

/// `dnsembed run`'s trace at its CLI defaults.
TraceConfig run_config(std::uint64_t seed) {
  TraceConfig config;
  config.seed = seed;
  config.hosts = 200;
  config.days = 4;
  config.benign_sites = 1000;
  config.malware_families = 8;
  return config;
}

/// Chains an XXH64 over every field of every event, lease and flow in
/// emission order (each record serialized, then hashed with the digest so
/// far as its seed).
class DigestSink final : public TraceSink {
 public:
  void on_dns(const dns::LogEntry& e) override {
    begin('D');
    put(e.timestamp);
    put(e.host);
    put(e.qname);
    put(static_cast<std::uint16_t>(e.qtype));
    put(static_cast<std::uint8_t>(e.rcode));
    put(e.ttl);
    put(static_cast<std::uint64_t>(e.addresses.size()));
    for (const auto& ip : e.addresses) put(ip.value());
    put(static_cast<std::uint64_t>(e.cnames.size()));
    for (const auto& cname : e.cnames) put(cname);
    fold();
    ++dns_events;
  }
  void on_flow(const NetflowRecord& f) override {
    begin('F');
    put(f.timestamp);
    put(f.host);
    put(f.dst_ip.value());
    put(f.dst_port);
    put(f.bytes);
    fold();
  }
  void on_dhcp(const dns::DhcpLease& lease) override {
    begin('L');
    put(lease.mac);
    put(lease.ip.value());
    put(lease.start);
    put(lease.end);
    fold();
  }

  std::string digest() const { return util::hex64(digest_); }
  std::size_t dns_events = 0;

 private:
  void begin(char tag) {
    record_.clear();
    record_.push_back(tag);
  }
  template <typename T>
  void put(T value) {
    record_.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  void put(const std::string& text) {
    put(static_cast<std::uint64_t>(text.size()));
    record_.append(text);
  }
  void fold() { digest_ = util::xxhash64(record_, digest_); }

  std::string record_;
  std::uint64_t digest_ = 0;
};

TEST(TraceDeterminism, GoldenEventDigest) {
  // Pinned values: every artifact of a run follows from this stream, so a
  // refactor of emission or of the log entry must leave them as they are.
  DigestSink small;
  generate_trace(small_config(), small);
  EXPECT_EQ(small.dns_events, 38675u);
  EXPECT_EQ(small.digest(), "e86aa5f8cc063243");
  DigestSink run;
  const auto result = generate_trace(run_config(11), run);
  EXPECT_EQ(run.dns_events, result.dns_events);
  EXPECT_EQ(run.dns_events, 362766u);
  EXPECT_EQ(run.digest(), "05f601cd61cae366");
}

TEST(TraceDeterminism, DifferentSeedDifferentTrace) {
  CollectingSink a;
  CollectingSink b;
  auto config = small_config();
  generate_trace(config, a);
  config.seed = 8;
  generate_trace(config, b);
  // Same shape, different content.
  ASSERT_FALSE(a.dns().empty());
  ASSERT_FALSE(b.dns().empty());
  bool any_diff = a.dns().size() != b.dns().size();
  for (std::size_t i = 0; !any_diff && i < std::min(a.dns().size(), b.dns().size()); ++i) {
    any_diff = !(a.dns()[i] == b.dns()[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(TraceValidation, RejectsBadConfig) {
  CollectingSink sink;
  TraceConfig config = small_config();
  config.hosts = 0;
  EXPECT_THROW(generate_trace(config, sink), std::invalid_argument);
  config = small_config();
  config.days = 0;
  EXPECT_THROW(generate_trace(config, sink), std::invalid_argument);
  config = small_config();
  config.max_victims = config.hosts + 1;
  EXPECT_THROW(generate_trace(config, sink), std::invalid_argument);
  config = small_config();
  config.min_victims = 10;
  config.max_victims = 5;
  EXPECT_THROW(generate_trace(config, sink), std::invalid_argument);
}

TEST(TraceSinks, TeeFansOut) {
  CollectingSink a;
  CollectingSink b;
  TeeSink tee{{&a, &b}};
  dns::LogEntry entry;
  entry.timestamp = 1;
  entry.host = "h";
  entry.qname = "x.com";
  tee.on_dns(entry);
  NetflowRecord flow;
  flow.host = "h";
  tee.on_flow(flow);
  EXPECT_EQ(a.dns().size(), 1u);
  EXPECT_EQ(b.dns().size(), 1u);
  EXPECT_EQ(a.flows().size(), 1u);
  EXPECT_EQ(b.flows().size(), 1u);
}

}  // namespace
}  // namespace dnsembed::trace
