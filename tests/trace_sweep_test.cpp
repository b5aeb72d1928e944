// Parameterized sweep over trace configurations: the simulator's
// invariants must hold across the config space, not just at defaults.
#include <gtest/gtest.h>

#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "dns/public_suffix.hpp"
#include "trace/generator.hpp"

namespace dnsembed::trace {
namespace {

struct SweepCase {
  const char* name;
  TraceConfig config;
};

// Print a case as its name. Without this, gtest prints the raw bytes of the
// struct, which include the address of `name`; that address moves with ASLR,
// so the test list (and every CTest name discovered from it) would differ on
// each run of the binary.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

TraceConfig base() {
  TraceConfig c;
  c.seed = 99;
  c.hosts = 50;
  c.days = 2;
  c.benign_sites = 200;
  c.third_party_pool = 40;
  c.interests_per_host = 30;
  c.polling_apps = 5;
  c.malware_families = 6;
  c.min_victims = 3;
  c.max_victims = 10;
  c.dga_domains_per_day = 8;
  c.spam_domains_per_family = 10;
  return c;
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  cases.push_back({"baseline", base()});

  auto tiny = base();
  tiny.hosts = 10;
  tiny.benign_sites = 40;
  tiny.interests_per_host = 15;
  tiny.malware_families = 2;
  tiny.min_victims = 2;
  tiny.max_victims = 5;
  cases.push_back({"tiny", tiny});

  auto single_day = base();
  single_day.days = 1;
  cases.push_back({"single_day", single_day});

  auto no_cdn = base();
  no_cdn.cdn_fraction = 0.0;
  no_cdn.shared_hosting_fraction = 0.0;
  cases.push_back({"no_cdn_no_shared", no_cdn});

  auto all_evasion = base();
  all_evasion.brandable_site_fraction = 1.0;
  all_evasion.ephemeral_site_fraction = 0.5;
  all_evasion.malicious_high_ttl_fraction = 1.0;
  cases.push_back({"max_evasion", all_evasion});

  auto no_noise = base();
  no_noise.typo_rate = 0.0;
  no_noise.stray_click_rate = 0.0;
  no_noise.expired_site_fraction = 0.0;
  cases.push_back({"no_noise", no_noise});

  auto shifted = base();
  shifted.tactic_shift_day = 1;
  cases.push_back({"tactic_shift", shifted});

  auto heavy_malware = base();
  heavy_malware.malware_families = 18;
  cases.push_back({"heavy_malware", heavy_malware});

  return cases;
}

class TraceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TraceSweep, InvariantsHold) {
  const auto& config = GetParam().config;
  CollectingSink sink;
  const auto result = generate_trace(config, sink);
  const auto& psl = dns::PublicSuffixList::builtin();

  // 1. Traffic exists and matches the counters.
  EXPECT_EQ(sink.dns().size(), result.dns_events);
  EXPECT_GT(result.dns_events, 100u);

  // 2. Every resolving e2LD is in the ground truth; labels are disjoint.
  std::unordered_set<std::string> seen_malicious;
  for (const auto& e : sink.dns()) {
    EXPECT_FALSE(e.host.empty());
    EXPECT_FALSE(e.qname.empty());
    if (e.rcode != dns::RCode::kNoError) {
      EXPECT_TRUE(e.addresses.empty());
      continue;
    }
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    EXPECT_TRUE(result.truth.is_known(e2ld)) << e2ld;
    if (result.truth.is_malicious(e2ld)) seen_malicious.insert(e2ld);
  }

  // 3. Every family emitted traffic for at least one domain (unless its
  //    victims were sampled empty, which the bounds prevent).
  std::unordered_set<std::size_t> active_families;
  for (const auto& d : seen_malicious) {
    active_families.insert(*result.truth.family_of(d));
  }
  EXPECT_GE(active_families.size(), result.truth.families().size() / 2);

  // 4. Victim cohorts respect the configured bounds.
  for (const auto& family : result.truth.families()) {
    EXPECT_GE(family.victims.size(), config.min_victims);
    EXPECT_LE(family.victims.size(), config.max_victims);
    EXPECT_FALSE(family.ips.empty());
    EXPECT_FALSE(family.domains.empty());
  }

  // 5. DHCP covers every emitting device at its first event.
  std::unordered_map<std::string, std::int64_t> first_event;
  for (const auto& e : sink.dns()) {
    const auto [it, inserted] = first_event.emplace(e.host, e.timestamp);
    if (!inserted && e.timestamp < it->second) it->second = e.timestamp;
  }
  for (const auto& [device, ts] : first_event) {
    EXPECT_TRUE(result.dhcp.ip_for(device, ts).has_value()) << device;
  }

  // 6. Determinism: the same config reproduces the same stream.
  CollectingSink again;
  const auto result2 = generate_trace(config, again);
  ASSERT_EQ(again.dns().size(), sink.dns().size());
  EXPECT_EQ(result2.truth.malicious_count(), result.truth.malicious_count());
  for (std::size_t i = 0; i < std::min<std::size_t>(500, sink.dns().size()); ++i) {
    ASSERT_EQ(again.dns()[i], sink.dns()[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, TraceSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace dnsembed::trace
