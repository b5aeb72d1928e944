#include "trace/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "trace/namegen.hpp"
#include "util/zipf.hpp"

namespace dnsembed::trace {

namespace {

constexpr std::int64_t kDay = 86'400;
constexpr std::int64_t kMinute = 60;

/// Sequential IP allocator inside a /8-style region.
class IpAllocator {
 public:
  explicit IpAllocator(std::uint32_t base) : next_{base} {}
  dns::Ipv4 allocate() { return dns::Ipv4{next_++}; }

 private:
  std::uint32_t next_;
};

struct ThirdParty {
  std::string e2ld;
  std::string fqdn;  // served hostname
  std::vector<dns::Ipv4> ips;
  std::uint32_t ttl = 300;
  bool is_cdn = false;
};

struct Site {
  std::string e2ld;
  std::string fqdn;                 // primary hostname (www.<e2ld> or apex)
  std::vector<std::string> extra_hostnames;  // api./img./static./m. fan-out
  std::size_t active_from = 0;      // first day the site exists
  std::size_t active_to = SIZE_MAX; // last day (inclusive); ephemeral sites are short
  bool expired = false;             // parked/lapsed: every query is NXDOMAIN
  std::vector<dns::Ipv4> ips;       // serving addresses (CDN: the CDN's IPs)
  std::uint32_t ttl = 3600;
  std::size_t cdn = SIZE_MAX;       // index into third parties when fronted by a CDN
  std::vector<std::size_t> embedded;  // third-party indices fetched with the page
};

struct PollingApp {
  std::string e2ld;
  std::string fqdn;
  std::vector<dns::Ipv4> ips;
  std::uint32_t ttl = 60;
  double period_seconds = 1200;
  std::vector<std::size_t> subscribers;  // host indices
};

struct Host {
  std::string id;
  double activity = 1.0;                 // scales session count
  std::array<double, 24> diurnal{};      // hourly activity weights
  std::vector<std::size_t> interests;    // site indices this host visits
  bool iot = false;                      // IoT/embedded device profile
  std::size_t iot_class = 0;             // device class (camera, TV, ...)
};

struct FamilyRuntime {
  MalwareFamily info;
  double beacon_seconds = 1800;
  std::uint32_t ttl = 120;
  std::uint32_t ttl_shifted = 120;       // regime after TraceConfig::tactic_shift_day
  std::uint64_t dga_seed = 0;            // kDgaCnc only
  std::vector<std::size_t> victim_hosts; // indices into hosts
  std::size_t active_from_day = 0;       // kZeroDay: silent before this day
  std::vector<std::size_t> cover_sites;  // kEvasion: benign sites used as cover
};

class Generator {
 public:
  Generator(const TraceConfig& config, TraceSink& sink) : config_{config}, sink_{&sink} {}

  TraceResult run() {
    util::Rng rng{config_.seed};
    build_third_parties(rng);
    build_sites(rng);
    build_apps(rng);
    build_hosts(rng);
    build_iot();
    build_dhcp(rng);
    build_families(rng);

    for (std::size_t day = 0; day < config_.days; ++day) {
      for (std::size_t h = 0; h < hosts_.size(); ++h) {
        util::Rng day_rng{config_.seed ^ (0xB10C0000ULL + day * 131071ULL + h)};
        if (hosts_[h].iot) {
          emit_iot_day(day, h, day_rng);
          continue;
        }
        emit_browsing(day, h, day_rng);
        emit_polling(day, h, day_rng);
      }
      for (auto& family : families_) {
        util::Rng fam_rng{config_.seed ^ (0xFA110000ULL + day * 524287ULL + family.info.id)};
        emit_family_day(day, family, fam_rng);
      }
    }
    return std::move(result_);
  }

 private:
  // ------------------------------------------------------------ build-up

  void build_third_parties(util::Rng& rng) {
    IpAllocator cdn_ips{dns::Ipv4{151, 101, 0, 1}.value()};
    IpAllocator ad_ips{dns::Ipv4{142, 250, 0, 1}.value()};
    std::unordered_set<std::string> used;
    third_parties_.reserve(config_.third_party_pool);
    while (third_parties_.size() < config_.third_party_pool) {
      ThirdParty tp;
      tp.e2ld = third_party_name(rng);
      if (!used.insert(tp.e2ld).second) continue;
      tp.is_cdn = rng.bernoulli(0.2);
      tp.fqdn = (tp.is_cdn ? "edge." : "a.") + tp.e2ld;
      const std::size_t ip_count = tp.is_cdn ? 4 + rng.uniform_index(5) : 1 + rng.uniform_index(3);
      for (std::size_t i = 0; i < ip_count; ++i) {
        tp.ips.push_back((tp.is_cdn ? cdn_ips : ad_ips).allocate());
      }
      tp.ttl = tp.is_cdn ? static_cast<std::uint32_t>(20 + rng.uniform_index(280))
                         : static_cast<std::uint32_t>(300 + rng.uniform_index(3300));
      result_.truth.add_benign(tp.e2ld);
      third_parties_.push_back(std::move(tp));
    }
    for (std::size_t i = 0; i < third_parties_.size(); ++i) {
      if (third_parties_[i].is_cdn) cdn_indices_.push_back(i);
    }
    // Third-party popularity is itself Zipf (a few ad networks dominate).
    third_party_zipf_ = std::make_unique<util::ZipfSampler>(third_parties_.size(), 0.9);
  }

  void build_sites(util::Rng& rng) {
    IpAllocator dedicated{dns::Ipv4{23, 32, 0, 1}.value()};
    // Shared-hosting pool: many sites land on the same few dozen addresses.
    const std::size_t shared_pool_size = std::max<std::size_t>(8, config_.benign_sites / 50);
    IpAllocator shared{dns::Ipv4{192, 185, 0, 1}.value()};
    for (std::size_t i = 0; i < shared_pool_size; ++i) shared_pool_.push_back(shared.allocate());
    const auto& shared_pool = shared_pool_;
    shared_zipf_ = std::make_unique<util::ZipfSampler>(shared_pool.size(), 1.1);

    std::unordered_set<std::string> used;
    sites_.reserve(config_.benign_sites);
    while (sites_.size() < config_.benign_sites) {
      Site site;
      if (rng.bernoulli(config_.idn_site_fraction)) {
        site.e2ld = idn_site_name(rng);
      } else {
        site.e2ld = rng.bernoulli(config_.brandable_site_fraction) ? brandable_site_name(rng)
                                                                   : benign_site_name(rng);
      }
      if (!used.insert(site.e2ld).second) continue;
      if (rng.bernoulli(config_.ephemeral_site_fraction)) {
        // Event page: online for one or two days.
        site.active_from = rng.uniform_index(config_.days);
        site.active_to = site.active_from + rng.uniform_index(2);
      }
      site.expired = rng.bernoulli(config_.expired_site_fraction);
      site.fqdn = rng.bernoulli(0.7) ? "www." + site.e2ld : site.e2ld;
      // FQDN fan-out under the e2LD (Fig. 1b: unique FQDNs >> unique e2LDs).
      static constexpr std::array<const char*, 6> kSubs{"api", "img", "static", "m",
                                                        "cdn", "login"};
      const std::size_t subs = rng.uniform_index(5);
      for (std::size_t s = 0; s < subs; ++s) {
        site.extra_hostnames.push_back(std::string{kSubs[rng.uniform_index(kSubs.size())]} +
                                       "." + site.e2ld);
      }
      const double hosting = rng.uniform();
      if (!cdn_indices_.empty() && hosting < config_.cdn_fraction) {
        site.cdn = cdn_indices_[rng.uniform_index(cdn_indices_.size())];
        site.ips = third_parties_[site.cdn].ips;
        site.ttl = third_parties_[site.cdn].ttl;
      } else if (hosting < config_.cdn_fraction + config_.shared_hosting_fraction) {
        // Tenant counts on shared hosts are heavy-tailed: a few machines
        // host hundreds of sites, many host a handful.
        site.ips.push_back(shared_pool[shared_zipf_->sample(rng)]);
        site.ttl = static_cast<std::uint32_t>(1800 + rng.uniform_index(84600));
      } else {
        const std::size_t ip_count = 1 + rng.uniform_index(3);
        for (std::size_t i = 0; i < ip_count; ++i) site.ips.push_back(dedicated.allocate());
        site.ttl = static_cast<std::uint32_t>(600 + rng.uniform_index(85800));
      }
      // Embedded third parties: popular networks appear on many sites.
      const std::size_t embeds = 2 + rng.uniform_index(7);
      std::unordered_set<std::size_t> chosen;
      for (std::size_t i = 0; i < embeds; ++i) {
        chosen.insert(third_party_zipf_->sample(rng));
      }
      site.embedded.assign(chosen.begin(), chosen.end());
      result_.truth.add_benign(site.e2ld);
      sites_.push_back(std::move(site));
    }
    site_zipf_ = std::make_unique<util::ZipfSampler>(sites_.size(), config_.zipf_exponent);
  }

  void build_apps(util::Rng& rng) {
    IpAllocator app_ips{dns::Ipv4{104, 16, 0, 1}.value()};
    std::unordered_set<std::string> used;
    while (apps_.size() < config_.polling_apps) {
      PollingApp app;
      app.e2ld = third_party_name(rng);
      if (!used.insert(app.e2ld).second || result_.truth.is_known(app.e2ld)) continue;
      app.fqdn = "push." + app.e2ld;
      const std::size_t ip_count = 1 + rng.uniform_index(2);
      for (std::size_t i = 0; i < ip_count; ++i) app.ips.push_back(app_ips.allocate());
      app.ttl = static_cast<std::uint32_t>(30 + rng.uniform_index(270));
      // Jittered per-app period around the configured mean.
      app.period_seconds =
          std::max(120.0, config_.polling_period_minutes * 60.0 * rng.uniform(0.5, 1.5));
      result_.truth.add_benign(app.e2ld);
      apps_.push_back(std::move(app));
    }
  }

  void build_hosts(util::Rng& rng) {
    hosts_.resize(config_.hosts);
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      Host& host = hosts_[h];
      host.id = "dev-" + std::to_string(1000 + h);
      host.activity = rng.uniform(0.4, 1.8);
      // Campus diurnal shape: quiet nights, peaks late morning and evening.
      for (std::size_t hour = 0; hour < 24; ++hour) {
        const double morning = std::exp(-0.5 * std::pow((static_cast<double>(hour) - 11) / 3.0, 2));
        const double evening = std::exp(-0.5 * std::pow((static_cast<double>(hour) - 20) / 2.5, 2));
        host.diurnal[hour] = 0.05 + morning + 0.8 * evening;
      }
      // Interest profile: Zipf-sampled sites; dedup keeps the popular head
      // shared across hosts (the audience overlap behind Eq. 1).
      std::unordered_set<std::size_t> interests;
      while (interests.size() < std::min(config_.interests_per_host, sites_.size())) {
        interests.insert(site_zipf_->sample(rng));
      }
      host.interests.assign(interests.begin(), interests.end());
      // App subscriptions.
      for (std::size_t a = 0; a < apps_.size(); ++a) {
        if (rng.bernoulli(0.12)) apps_[a].subscribers.push_back(h);
      }
    }
  }

  // IoT/embedded device profiles: the last `hosts * iot_host_fraction`
  // devices become IoT endpoints — no browsing, no app polling, just a
  // handful of per-class vendor endpoints queried in tight bursts. Uses a
  // derived RNG stream so the rest of the campus (leases, families, victim
  // cohorts) is byte-identical whether or not IoT profiles are enabled.
  void build_iot() {
    const auto iot_count = static_cast<std::size_t>(
        config_.iot_host_fraction * static_cast<double>(config_.hosts));
    if (iot_count == 0) return;
    util::Rng rng{config_.seed * 73 + 0x107B0057ULL};
    static constexpr std::array<const char*, 4> kClasses{"cam", "tv", "sensor", "plug"};
    IpAllocator vendor_ips{dns::Ipv4{52, 94, 0, 1}.value()};
    iot_class_endpoints_.resize(kClasses.size());
    std::unordered_set<std::string> used;
    for (std::size_t cls = 0; cls < kClasses.size(); ++cls) {
      while (iot_class_endpoints_[cls].size() < config_.iot_vendor_domains) {
        ThirdParty endpoint;
        endpoint.e2ld = third_party_name(rng);
        if (!used.insert(endpoint.e2ld).second || result_.truth.is_known(endpoint.e2ld)) continue;
        endpoint.fqdn = std::string{kClasses[cls]} + "-fw." + endpoint.e2ld;
        const std::size_t ip_count = 1 + rng.uniform_index(2);
        for (std::size_t i = 0; i < ip_count; ++i) endpoint.ips.push_back(vendor_ips.allocate());
        endpoint.ttl = static_cast<std::uint32_t>(60 + rng.uniform_index(540));
        result_.truth.add_benign(endpoint.e2ld);
        iot_endpoints_.push_back(std::move(endpoint));
        iot_class_endpoints_[cls].push_back(iot_endpoints_.size() - 1);
      }
    }
    for (std::size_t h = hosts_.size() - iot_count; h < hosts_.size(); ++h) {
      Host& host = hosts_[h];
      host.iot = true;
      host.iot_class = h % kClasses.size();
      // Embedded devices run around the clock: flat diurnal profile.
      host.diurnal.fill(1.0);
    }
    // IoT devices do not run user-facing polling apps.
    for (auto& app : apps_) {
      std::erase_if(app.subscribers, [&](std::size_t h) { return hosts_[h].iot; });
    }
  }

  void build_dhcp(util::Rng& rng) {
    IpAllocator campus{dns::Ipv4{10, 20, 0, 10}.value()};
    const auto horizon = static_cast<std::int64_t>(config_.days) * kDay;
    for (auto& host : hosts_) {
      // Each device walks through one or more leases on its own address
      // (campus-style per-device reassignment is modeled as lease renewal
      // times; a fresh IP is drawn per lease).
      std::int64_t t = config_.start_time;
      while (t < config_.start_time + horizon) {
        const auto lease_len = static_cast<std::int64_t>(
            std::max(3600.0, rng.exponential(1.0 / (config_.dhcp_lease_hours * 3600.0))));
        const std::int64_t end = std::min(t + lease_len, config_.start_time + horizon);
        dns::DhcpLease lease{host.id, campus.allocate(), t, end};
        sink_->on_dhcp(lease);
        result_.dhcp.add_lease(std::move(lease));
        t = end;
      }
    }
  }

  void build_families(util::Rng& campus_rng) {
    // Infrastructure (names, IPs, TTLs, ports, beacon cadence) comes from
    // the campaign seed so it can be shared across campuses; victim
    // cohorts come from the campus seed.
    util::Rng rng{config_.campaign_seed != 0 ? config_.campaign_seed : config_.seed * 31 + 7};
    IpAllocator mal_ips{dns::Ipv4{185, 220, 0, 1}.value()};
    constexpr std::array<FamilyKind, 6> kinds{FamilyKind::kDgaCnc,   FamilyKind::kSpam,
                                              FamilyKind::kPhishing, FamilyKind::kFastFlux,
                                              FamilyKind::kStaticCnc, FamilyKind::kApt};
    constexpr std::array<std::uint16_t, 4> cnc_ports{80, 1337, 2710, 8080};

    for (std::size_t f = 0; f < config_.malware_families; ++f) {
      FamilyRuntime family;
      family.info.id = f;
      family.info.kind = kinds[f % kinds.size()];
      family.info.name =
          "family" + std::to_string(f) + "-" + std::string{family_kind_name(family.info.kind)};
      family.beacon_seconds =
          rng.uniform(config_.min_beacon_minutes, config_.max_beacon_minutes) * 60.0;
      const bool high_ttl = rng.bernoulli(config_.malicious_high_ttl_fraction);
      family.ttl = high_ttl ? static_cast<std::uint32_t>(3600 + rng.uniform_index(82800))
                            : static_cast<std::uint32_t>(30 + rng.uniform_index(270));
      // Post-shift regime: the opposite tactic (paper §8.2: malicious TTL
      // behavior inverted over time).
      family.ttl_shifted = high_ttl ? static_cast<std::uint32_t>(30 + rng.uniform_index(270))
                                    : static_cast<std::uint32_t>(3600 + rng.uniform_index(82800));

      // Victim cohort: local to this campus.
      draw_victims(family, campus_rng);

      switch (family.info.kind) {
        case FamilyKind::kDgaCnc: {
          family.dga_seed = rng();
          family.info.port = cnc_ports[rng.uniform_index(cnc_ports.size())];
          const std::size_t pool = 3 + rng.uniform_index(4);
          for (std::size_t i = 0; i < pool; ++i) family.info.ips.push_back(mal_ips.allocate());
          // Domains are appended lazily per day in emit_family_day; register
          // the full horizon now so ground truth is complete up front.
          for (std::size_t day = 0; day < config_.days; ++day) {
            for (std::size_t i = 0; i < config_.dga_domains_per_day; ++i) {
              family.info.domains.push_back(dga_name(family.dga_seed, day, i));
            }
          }
          break;
        }
        case FamilyKind::kSpam:
        case FamilyKind::kPhishing: {
          family.info.port = family.info.kind == FamilyKind::kSpam
                                 ? cnc_ports[rng.uniform_index(cnc_ports.size())]
                                 : 443;
          // Compromised shared hosting: part of the campaign serves from
          // the same addresses as legitimate shared-hosted sites.
          if (rng.bernoulli(config_.compromised_hosting_fraction) && !shared_pool_.empty()) {
            family.info.ips.push_back(shared_pool_[rng.uniform_index(shared_pool_.size())]);
          }
          const std::size_t ip_count = 1 + rng.uniform_index(2);
          for (std::size_t i = 0; i < ip_count; ++i) family.info.ips.push_back(mal_ips.allocate());
          const std::size_t count =
              family.info.kind == FamilyKind::kSpam
                  ? config_.spam_domains_per_family
                  : std::max<std::size_t>(1, config_.spam_domains_per_family / 2);
          std::unordered_set<std::string> used;
          while (used.size() < count) {
            const std::string tld = family.info.kind == FamilyKind::kSpam ? "bid" : "top";
            std::string name = spam_name(rng, tld);
            if (result_.truth.is_known(name) || !used.insert(name).second) continue;
            family.info.domains.push_back(std::move(name));
          }
          break;
        }
        case FamilyKind::kFastFlux: {
          family.info.port = 80;
          for (std::size_t i = 0; i < config_.fastflux_pool_size; ++i) {
            family.info.ips.push_back(mal_ips.allocate());
          }
          family.ttl = static_cast<std::uint32_t>(30 + rng.uniform_index(90));  // always short
          family.ttl_shifted = static_cast<std::uint32_t>(120 + rng.uniform_index(480));
          const std::size_t count = 6 + rng.uniform_index(5);
          std::unordered_set<std::string> used;
          while (used.size() < count) {
            std::string name = spam_name(rng, "su");
            if (result_.truth.is_known(name) || !used.insert(name).second) continue;
            family.info.domains.push_back(std::move(name));
          }
          break;
        }
        case FamilyKind::kStaticCnc: {
          family.info.port = cnc_ports[1 + rng.uniform_index(cnc_ports.size() - 1)];
          const std::size_t ip_count = 1 + rng.uniform_index(3);
          for (std::size_t i = 0; i < ip_count; ++i) family.info.ips.push_back(mal_ips.allocate());
          const std::size_t count = 2 + rng.uniform_index(4);
          std::unordered_set<std::string> used;
          while (used.size() < count) {
            std::string name = spam_name(rng, "win");
            if (result_.truth.is_known(name) || !used.insert(name).second) continue;
            family.info.domains.push_back(std::move(name));
          }
          break;
        }
        case FamilyKind::kApt: {
          // Statistical mimicry: wordlike .com/.net names, a couple of
          // dedicated stable IPs, ordinary TTLs, HTTPS port. Every
          // Exposure feature group looks benign.
          family.info.port = 443;
          family.ttl = static_cast<std::uint32_t>(1800 + rng.uniform_index(84600));
          const std::size_t ip_count = 1 + rng.uniform_index(2);
          for (std::size_t i = 0; i < ip_count; ++i) family.info.ips.push_back(mal_ips.allocate());
          const std::size_t count = 8 + rng.uniform_index(8);
          std::unordered_set<std::string> used;
          while (used.size() < count) {
            std::string name = benign_site_name(rng);
            if (result_.truth.is_known(name) || !used.insert(name).second) continue;
            family.info.domains.push_back(std::move(name));
          }
          break;
        }
        case FamilyKind::kZeroDay:
        case FamilyKind::kEvasion:
          // Adversarial kinds are never in the baseline round-robin; they
          // are built in build_adversarial_families below.
          break;
      }
      result_.truth.add_family(family.info);
      families_.push_back(std::move(family));
    }
    build_adversarial_families(rng, campus_rng, mal_ips, cnc_ports);
  }

  /// Victim cohort drawn from the campus RNG (baseline and adversarial
  /// families share the draw pattern; `cohort_cap` clamps the size after the
  /// draw so the RNG sequence is unchanged whether or not a cap applies).
  void draw_victims(FamilyRuntime& family, util::Rng& campus_rng,
                    std::size_t cohort_cap = SIZE_MAX) {
    const std::size_t cohort = std::min(
        cohort_cap,
        config_.min_victims +
            campus_rng.uniform_index(
                std::max<std::size_t>(1, config_.max_victims - config_.min_victims)));
    std::unordered_set<std::size_t> victims;
    while (victims.size() < std::min(cohort, hosts_.size())) {
      victims.insert(campus_rng.uniform_index(hosts_.size()));
    }
    family.victim_hosts.assign(victims.begin(), victims.end());
    for (const std::size_t v : family.victim_hosts) {
      family.info.victims.push_back(hosts_[v].id);
    }
  }

  // Adversarial campaign archetypes, generated AFTER (and in addition to)
  // the baseline families so enabling them never perturbs baseline
  // infrastructure or victim cohorts for a given seed pair.
  void build_adversarial_families(util::Rng& rng, util::Rng& campus_rng, IpAllocator& mal_ips,
                                  const std::array<std::uint16_t, 4>& cnc_ports) {
    if (config_.zero_day_families == 0 && config_.evasion_families == 0) return;
    const std::size_t activation = config_.zero_day_activation_day == SIZE_MAX
                                       ? config_.days / 2
                                       : config_.zero_day_activation_day;
    // Low-reputation pool: every serving IP already burned by an earlier
    // family. Zero-day campaigns draw from it (MANTIS: infrastructure
    // reuse is the one pre-activation signal about fresh domains).
    std::vector<dns::Ipv4> low_rep_pool;
    for (const auto& prior : families_) {
      low_rep_pool.insert(low_rep_pool.end(), prior.info.ips.begin(), prior.info.ips.end());
    }
    // Adversarial cohorts stay at or below the >50%-of-hosts pruning head:
    // a campaign infecting most of a small campus would be pruned as
    // "popular", which makes the scenario vacuous rather than hard.
    const std::size_t cohort_cap = std::max<std::size_t>(2, hosts_.size() / 2);

    std::size_t next_id = config_.malware_families;
    for (std::size_t z = 0; z < config_.zero_day_families; ++z) {
      FamilyRuntime family;
      family.info.id = next_id++;
      family.info.kind = FamilyKind::kZeroDay;
      family.info.name = "family" + std::to_string(family.info.id) + "-zero-day";
      family.active_from_day = activation;
      family.beacon_seconds =
          rng.uniform(config_.min_beacon_minutes, config_.max_beacon_minutes) * 60.0;
      // Fresh campaign: no TTL history to shift; a single short-ish regime.
      family.ttl = static_cast<std::uint32_t>(60 + rng.uniform_index(600));
      family.ttl_shifted = family.ttl;
      family.info.port = cnc_ports[rng.uniform_index(cnc_ports.size())];
      draw_victims(family, campus_rng, cohort_cap);
      const std::size_t ip_count = 2 + rng.uniform_index(3);
      for (std::size_t i = 0; i < ip_count; ++i) {
        if (!low_rep_pool.empty() && rng.bernoulli(config_.zero_day_ip_reuse_fraction)) {
          family.info.ips.push_back(low_rep_pool[rng.uniform_index(low_rep_pool.size())]);
        } else {
          family.info.ips.push_back(mal_ips.allocate());
        }
      }
      const std::size_t count = 3 + rng.uniform_index(4);
      std::unordered_set<std::string> used;
      while (used.size() < count) {
        std::string name = spam_name(rng, "icu");
        if (result_.truth.is_known(name) || !used.insert(name).second) continue;
        family.info.domains.push_back(std::move(name));
      }
      // Later zero-day families may reuse this family's pool too.
      low_rep_pool.insert(low_rep_pool.end(), family.info.ips.begin(), family.info.ips.end());
      result_.truth.add_family(family.info);
      families_.push_back(std::move(family));
    }

    for (std::size_t e = 0; e < config_.evasion_families; ++e) {
      FamilyRuntime family;
      family.info.id = next_id++;
      family.info.kind = FamilyKind::kEvasion;
      family.info.name = "family" + std::to_string(family.info.id) + "-evasion";
      family.beacon_seconds =
          rng.uniform(config_.min_beacon_minutes, config_.max_beacon_minutes) * 60.0;
      // Mimicry extends to answer features: benign-looking TTLs, HTTPS.
      family.ttl = static_cast<std::uint32_t>(1800 + rng.uniform_index(84600));
      family.ttl_shifted = family.ttl;
      family.info.port = 443;
      draw_victims(family, campus_rng, cohort_cap);
      if (rng.bernoulli(config_.compromised_hosting_fraction) && !shared_pool_.empty()) {
        family.info.ips.push_back(shared_pool_[rng.uniform_index(shared_pool_.size())]);
      }
      const std::size_t ip_count = 1 + rng.uniform_index(2);
      for (std::size_t i = 0; i < ip_count; ++i) family.info.ips.push_back(mal_ips.allocate());
      const std::size_t count = std::max<std::size_t>(1, config_.spam_domains_per_family / 3);
      std::unordered_set<std::string> used;
      while (used.size() < count) {
        std::string name = benign_site_name(rng);
        if (result_.truth.is_known(name) || !used.insert(name).second) continue;
        family.info.domains.push_back(std::move(name));
      }
      // Cover sites: popular enough that their embeddings sit firmly in the
      // benign mass, but below the >50%-of-hosts head that pruning removes.
      // Always-on sites only, so cover is available on every day.
      const std::size_t lo = sites_.size() / 20;
      const std::size_t span = std::max<std::size_t>(1, sites_.size() / 3 - lo);
      std::unordered_set<std::size_t> cover;
      for (int attempt = 0; attempt < 4096 && cover.size() < config_.evasion_cover_sites;
           ++attempt) {
        const std::size_t idx = lo + rng.uniform_index(span);
        if (sites_[idx].expired || sites_[idx].active_to != SIZE_MAX) continue;
        cover.insert(idx);
      }
      family.cover_sites.assign(cover.begin(), cover.end());
      std::sort(family.cover_sites.begin(), family.cover_sites.end());
      result_.truth.add_family(family.info);
      families_.push_back(std::move(family));
    }
  }

  // ------------------------------------------------------------ emission

  /// One event, written into the reused entry_ (its strings and vectors
  /// keep their capacity from event to event). `cname` is the one CNAME
  /// target, empty for none.
  void emit_dns(std::int64_t ts, const std::string& host, std::string_view fqdn,
                std::uint32_t ttl, std::span<const dns::Ipv4> addresses,
                std::string_view cname = {}, dns::RCode rcode = dns::RCode::kNoError) {
    dns::LogEntry& entry = entry_;
    entry.timestamp = ts;
    entry.host = host;
    entry.qname = fqdn;
    entry.qtype = dns::QType::kA;
    entry.rcode = rcode;
    // Observed TTLs count down in resolver caches: passive DNS sees a
    // uniform remainder of the authoritative value, not the value itself.
    entry.ttl = rcode == dns::RCode::kNoError && ttl > 0
                    ? 1 + static_cast<std::uint32_t>(obs_rng_.uniform_index(ttl))
                    : 0;
    if (rcode == dns::RCode::kNoError) {
      entry.addresses.assign(addresses.begin(), addresses.end());
    } else {
      entry.addresses.clear();
    }
    entry.cnames.resize(cname.empty() ? 0 : 1);
    if (!cname.empty()) entry.cnames.front() = cname;
    if (rcode == dns::RCode::kNxDomain) ++result_.nxdomain_events;
    ++result_.dns_events;
    sink_->on_dns(entry);
  }

  /// Family TTL in effect on `day` (regime shift per TraceConfig).
  std::uint32_t family_ttl(const FamilyRuntime& family, std::size_t day) const {
    return day >= config_.tactic_shift_day ? family.ttl_shifted : family.ttl;
  }

  /// Stable per-domain server assignment inside a family pool: each
  /// campaign wave serves its domains from specific machines, so answer
  /// features vary across a family instead of fingerprinting it.
  static dns::Ipv4 family_ip_for(const FamilyRuntime& family, const std::string& domain,
                                 util::Rng& rng) {
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : domain) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    const std::size_t base = h % family.info.ips.size();
    // Occasionally the secondary server answers.
    const std::size_t offset = rng.bernoulli(0.2) ? 1 : 0;
    return family.info.ips[(base + offset) % family.info.ips.size()];
  }

  void emit_flow(std::int64_t ts, const std::string& host, dns::Ipv4 ip, std::uint16_t port,
                 std::uint32_t bytes, bool malicious, util::Rng& rng) {
    if (!config_.emit_netflow) return;
    if (!malicious && !rng.bernoulli(config_.benign_flow_sample)) return;
    NetflowRecord record;
    record.timestamp = ts;
    record.host = host;
    record.dst_ip = ip;
    record.dst_port = port;
    record.bytes = bytes;
    ++result_.flow_events;
    sink_->on_flow(record);
  }

  /// Probability that the device is powered on / active at time t (scaled
  /// diurnal weight). Bots only beacon while their host runs.
  bool host_awake(const Host& host, std::int64_t t, util::Rng& rng) const {
    const auto hour = static_cast<std::size_t>((t % kDay) / 3600);
    double max_weight = 0.0;
    for (const double w : host.diurnal) max_weight = std::max(max_weight, w);
    return rng.uniform() * max_weight < host.diurnal[hour % 24];
  }

  /// A second-of-day drawn from the host's diurnal profile.
  std::int64_t diurnal_second(const Host& host, util::Rng& rng) const {
    double total = 0.0;
    for (const double w : host.diurnal) total += w;
    double u = rng.uniform() * total;
    std::size_t hour = 0;
    for (; hour < 24; ++hour) {
      u -= host.diurnal[hour];
      if (u <= 0.0) break;
    }
    hour = std::min<std::size_t>(hour, 23);
    return static_cast<std::int64_t>(hour) * 3600 + static_cast<std::int64_t>(rng.uniform_index(3600));
  }

  void emit_page_view(std::int64_t ts, const Host& host, const Site& site, util::Rng& rng) {
    // Occasional typo first: NXDOMAIN, then the corrected query.
    if (rng.bernoulli(config_.typo_rate)) {
      emit_dns(ts, host.id, typo_of(site.fqdn, rng), 0, {}, {}, dns::RCode::kNxDomain);
      ts += 1 + static_cast<std::int64_t>(rng.uniform_index(3));
    }
    if (site.expired) {
      // Stale link: the lookup fails and the user bounces — no assets, no
      // third-party fetches.
      emit_dns(ts, host.id, site.fqdn, 0, {}, {}, dns::RCode::kNxDomain);
      return;
    }
    const std::string_view cname =
        site.cdn != SIZE_MAX ? std::string_view{third_parties_[site.cdn].fqdn} : std::string_view{};
    emit_dns(ts, host.id, site.fqdn, site.ttl, site.ips, cname);
    // Page assets from sibling hostnames of the same e2LD.
    for (const auto& hostname : site.extra_hostnames) {
      if (!rng.bernoulli(0.5)) continue;
      emit_dns(ts + 1 + static_cast<std::int64_t>(rng.uniform_index(3)), host.id, hostname,
               site.ttl, site.ips);
    }
    if (!site.ips.empty()) {
      emit_flow(ts, host.id, site.ips[rng.uniform_index(site.ips.size())], 443,
                2000 + static_cast<std::uint32_t>(rng.uniform_index(60000)), false, rng);
    }
    // Embedded third-party fetches: within a few seconds (the temporal
    // co-occurrence the DTBG captures).
    for (const std::size_t tp_index : site.embedded) {
      if (!rng.bernoulli(std::min(1.0, config_.embedded_per_page /
                                           static_cast<double>(site.embedded.size())))) {
        continue;
      }
      const ThirdParty& tp = third_parties_[tp_index];
      emit_dns(ts + 1 + static_cast<std::int64_t>(rng.uniform_index(4)), host.id, tp.fqdn,
               tp.ttl, tp.ips);
    }
  }

  void emit_browsing(std::size_t day, std::size_t host_index, util::Rng& rng) {
    const Host& host = hosts_[host_index];
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    const auto sessions = rng.poisson(config_.sessions_per_day * host.activity);
    for (std::uint64_t s = 0; s < sessions; ++s) {
      std::int64_t t = day_start + diurnal_second(host, rng);
      const auto pages = 1 + rng.poisson(config_.pages_per_session);
      for (std::uint64_t p = 0; p < pages; ++p) {
        // Re-draw (bounded) when the chosen site is not live on this day.
        const Site* site = nullptr;
        for (int attempt = 0; attempt < 8; ++attempt) {
          const Site& candidate =
              sites_[host.interests[rng.uniform_index(host.interests.size())]];
          if (day >= candidate.active_from && day <= candidate.active_to) {
            site = &candidate;
            break;
          }
        }
        if (site == nullptr) continue;
        emit_page_view(t, host, *site, rng);
        t += 10 + static_cast<std::int64_t>(rng.uniform_index(110));
      }
    }
  }

  void emit_polling(std::size_t day, std::size_t host_index, util::Rng& rng) {
    const Host& host = hosts_[host_index];
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    for (const auto& app : apps_) {
      if (!std::binary_search(app.subscribers.begin(), app.subscribers.end(), host_index)) {
        continue;
      }
      // Fixed per-(host, app) phase; jittered period.
      std::int64_t t =
          day_start + static_cast<std::int64_t>(rng.uniform_index(
                          static_cast<std::uint64_t>(app.period_seconds)));
      while (t < day_start + kDay) {
        emit_dns(t, host.id, app.fqdn, app.ttl, app.ips);
        t += static_cast<std::int64_t>(app.period_seconds * rng.uniform(0.85, 1.15));
      }
    }
  }

  void emit_family_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    switch (family.info.kind) {
      case FamilyKind::kDgaCnc:
        emit_dga_day(day, family, rng);
        break;
      case FamilyKind::kSpam:
      case FamilyKind::kPhishing:
        emit_campaign_day(day, family, rng);
        break;
      case FamilyKind::kFastFlux:
        emit_fastflux_day(day, family, rng);
        break;
      case FamilyKind::kStaticCnc:
        emit_static_cnc_day(day, family, rng);
        break;
      case FamilyKind::kApt:
        emit_apt_day(day, family, rng);
        break;
      case FamilyKind::kZeroDay:
        // Completely silent (no DNS, no flows) until the activation day;
        // afterwards the campaign beacons like a static C&C.
        if (day >= family.active_from_day) emit_static_cnc_day(day, family, rng);
        break;
      case FamilyKind::kEvasion:
        emit_evasion_day(day, family, rng);
        break;
    }
  }

  void emit_evasion_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    // Like a spam/phishing campaign, but with probability
    // `evasion_mimicry_rate` each C&C contact is sandwiched between page
    // views of popular benign cover sites by the same victim, seconds
    // apart — poisoning the temporal co-occurrence graph (and, since every
    // victim uses the same cover set, correlating the cohort with benign
    // domains in the query graph).
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      const auto clicks = 1 + rng.poisson(2.0);
      for (std::uint64_t c = 0; c < clicks; ++c) {
        std::int64_t t = day_start + diurnal_second(host, rng);
        const bool covered =
            !family.cover_sites.empty() && rng.bernoulli(config_.evasion_mimicry_rate);
        if (covered) {
          const Site& cover =
              sites_[family.cover_sites[rng.uniform_index(family.cover_sites.size())]];
          emit_page_view(t, host, cover, rng);
          t += 2 + static_cast<std::int64_t>(rng.uniform_index(6));
        }
        const std::size_t chain = 1 + rng.uniform_index(2);
        for (std::size_t k = 0; k < chain; ++k) {
          const std::string& domain =
              family.info.domains[rng.uniform_index(family.info.domains.size())];
          const dns::Ipv4 ip = family_ip_for(family, domain, rng);
          emit_dns(t, host.id, domain, family_ttl(family, day), {&ip, 1});
          emit_flow(t + 1, host.id, ip, family.info.port,
                    500 + static_cast<std::uint32_t>(rng.uniform_index(5000)), true, rng);
          t += 2 + static_cast<std::int64_t>(rng.uniform_index(5));
        }
        if (covered) {
          const Site& cover =
              sites_[family.cover_sites[rng.uniform_index(family.cover_sites.size())]];
          emit_page_view(t + 1 + static_cast<std::int64_t>(rng.uniform_index(4)), host, cover,
                         rng);
        }
      }
    }
  }

  void emit_iot_day(std::size_t day, std::size_t host_index, util::Rng& rng) {
    // Embedded device: a narrow set of vendor endpoints, contacted in
    // tight bursts (firmware/telemetry check-ins) around the clock. No
    // browsing, no user apps — the behavioral model sees a query
    // distribution far narrower and burstier than any desktop.
    const Host& host = hosts_[host_index];
    if (iot_class_endpoints_.empty()) return;
    const auto& endpoints = iot_class_endpoints_[host.iot_class % iot_class_endpoints_.size()];
    if (endpoints.empty()) return;
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    const double period = std::max(600.0, config_.iot_burst_period_hours * 3600.0);
    std::int64_t t = day_start + static_cast<std::int64_t>(
                                     rng.uniform_index(static_cast<std::uint64_t>(period)));
    while (t < day_start + kDay) {
      // One burst: a handful of rapid queries across the class endpoints.
      const std::size_t queries = 3 + rng.uniform_index(6);
      std::int64_t q = t;
      for (std::size_t i = 0; i < queries; ++i) {
        const ThirdParty& endpoint = iot_endpoints_[endpoints[rng.uniform_index(endpoints.size())]];
        emit_dns(q, host.id, endpoint.fqdn, endpoint.ttl, endpoint.ips);
        q += 1 + static_cast<std::int64_t>(rng.uniform_index(5));
      }
      const ThirdParty& flow_endpoint =
          iot_endpoints_[endpoints[rng.uniform_index(endpoints.size())]];
      if (!flow_endpoint.ips.empty()) {
        emit_flow(q, host.id, flow_endpoint.ips.front(), 443,
                  200 + static_cast<std::uint32_t>(rng.uniform_index(4000)), false, rng);
      }
      t += static_cast<std::int64_t>(period * rng.uniform(0.7, 1.3));
    }
  }

  void emit_apt_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    // Low-and-slow: a few contacts per victim per day, at human-looking
    // hours, to long-lived wordlike domains over HTTPS. Indistinguishable
    // from browsing for per-domain statistical features; the shared victim
    // cohort remains visible to the behavioral graphs.
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      const auto contacts = 1 + rng.poisson(1.5);
      for (std::uint64_t c = 0; c < contacts; ++c) {
        const std::int64_t t = day_start + diurnal_second(host, rng);
        const std::string& domain =
            family.info.domains[rng.uniform_index(family.info.domains.size())];
        const dns::Ipv4 ip = family_ip_for(family, domain, rng);
        emit_dns(t, host.id, domain, family_ttl(family, day), {&ip, 1});
        emit_flow(t + 1, host.id, ip, family.info.port,
                  1000 + static_cast<std::uint32_t>(rng.uniform_index(20000)), true, rng);
      }
    }
  }

  void emit_dga_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    // Today's candidate list; a deterministic prefix is "registered".
    std::vector<std::string> today;
    today.reserve(config_.dga_domains_per_day);
    for (std::size_t i = 0; i < config_.dga_domains_per_day; ++i) {
      today.push_back(dga_name(family.dga_seed, day, i));
    }
    const std::size_t active = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.dga_active_fraction *
                                    static_cast<double>(today.size())));
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;

    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      std::int64_t t = day_start + static_cast<std::int64_t>(
                                       rng.uniform_index(static_cast<std::uint64_t>(
                                           family.beacon_seconds)));
      while (t < day_start + kDay) {
        // Bots run only while the host is awake; missed beacons are skipped.
        if (!host_awake(host, t, rng)) {
          t += static_cast<std::int64_t>(family.beacon_seconds * rng.uniform(0.5, 1.5));
          continue;
        }
        // The bot walks the candidate list in a random order until it hits
        // a registered name: a few NXDOMAINs, spread over a few minutes
        // (real bots sleep between retries), then one resolution.
        const std::size_t tries = 1 + rng.uniform_index(3);
        std::int64_t probe = t;
        for (std::size_t k = 0; k < tries; ++k) {
          const std::size_t idx = active + rng.uniform_index(today.size() - active);
          emit_dns(probe, host.id, today[idx], 0, {}, {}, dns::RCode::kNxDomain);
          probe += 15 + static_cast<std::int64_t>(rng.uniform_index(165));
        }
        const std::size_t hit = rng.uniform_index(active);
        const dns::Ipv4 ip = family_ip_for(family, today[hit], rng);
        emit_dns(probe, host.id, today[hit], family_ttl(family, day), {&ip, 1});
        emit_flow(probe + 1, host.id, ip, family.info.port,
                  200 + static_cast<std::uint32_t>(rng.uniform_index(2000)), true, rng);
        t += static_cast<std::int64_t>(family.beacon_seconds * rng.uniform(0.5, 1.5));
      }
    }
  }

  void emit_campaign_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    // Victims click spam/phishing links during their active hours; a click
    // walks a short redirection chain across campaign domains.
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    // Stray clicks: spam reaches the whole campus; an occasional non-victim
    // clicks one campaign link once.
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      if (!rng.bernoulli(config_.stray_click_rate)) continue;
      const Host& host = hosts_[h];
      const std::int64_t t = day_start + diurnal_second(host, rng);
      const std::string& domain =
          family.info.domains[rng.uniform_index(family.info.domains.size())];
      const dns::Ipv4 ip = family_ip_for(family, domain, rng);
      emit_dns(t, host.id, domain, family_ttl(family, day), {&ip, 1});
    }
    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      const auto clicks = rng.poisson(2.0);
      for (std::uint64_t c = 0; c < clicks; ++c) {
        std::int64_t t = day_start + diurnal_second(host, rng);
        const std::size_t chain = 1 + rng.uniform_index(3);
        for (std::size_t k = 0; k < chain; ++k) {
          const std::string& domain =
              family.info.domains[rng.uniform_index(family.info.domains.size())];
          const dns::Ipv4 ip = family_ip_for(family, domain, rng);
          emit_dns(t, host.id, domain, family_ttl(family, day), {&ip, 1});
          emit_flow(t + 1, host.id, ip, family.info.port,
                    500 + static_cast<std::uint32_t>(rng.uniform_index(5000)), true, rng);
          t += 2 + static_cast<std::int64_t>(rng.uniform_index(5));
        }
      }
    }
  }

  void emit_fastflux_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      const auto contacts = 1 + rng.poisson(3.0);
      for (std::uint64_t c = 0; c < contacts; ++c) {
        const std::int64_t t = day_start + diurnal_second(host, rng);
        const std::string& domain =
            family.info.domains[rng.uniform_index(family.info.domains.size())];
        // Rotating flux set: the answer window advances every 5 minutes.
        const std::size_t window =
            static_cast<std::size_t>((t / (5 * kMinute))) % family.info.ips.size();
        std::vector<dns::Ipv4> answers;
        for (std::size_t k = 0; k < 4; ++k) {
          answers.push_back(family.info.ips[(window + k * 7) % family.info.ips.size()]);
        }
        // Fast-flux fronts commonly answer through a CNAME layer, like CDNs.
        emit_dns(t, host.id, domain, family_ttl(family, day), answers, "edge." + domain);
        emit_flow(t + 1, host.id, answers.front(), family.info.port,
                  300 + static_cast<std::uint32_t>(rng.uniform_index(3000)), true, rng);
      }
    }
  }

  void emit_static_cnc_day(std::size_t day, FamilyRuntime& family, util::Rng& rng) {
    const std::int64_t day_start = config_.start_time + static_cast<std::int64_t>(day) * kDay;
    for (const std::size_t v : family.victim_hosts) {
      const Host& host = hosts_[v];
      std::int64_t t = day_start + static_cast<std::int64_t>(
                                       rng.uniform_index(static_cast<std::uint64_t>(
                                           family.beacon_seconds)));
      while (t < day_start + kDay) {
        if (!host_awake(host, t, rng)) {
          t += static_cast<std::int64_t>(family.beacon_seconds * rng.uniform(0.5, 1.5));
          continue;
        }
        const std::string& domain =
            family.info.domains[rng.uniform_index(family.info.domains.size())];
        const dns::Ipv4 ip = family_ip_for(family, domain, rng);
        emit_dns(t, host.id, domain, family_ttl(family, day), {&ip, 1});
        emit_flow(t + 1, host.id, ip, family.info.port,
                  100 + static_cast<std::uint32_t>(rng.uniform_index(400)), true, rng);
        t += static_cast<std::int64_t>(family.beacon_seconds * rng.uniform(0.7, 1.3));
      }
    }
  }

  const TraceConfig config_;
  TraceSink* sink_;
  TraceResult result_;
  util::Rng obs_rng_{0xCAC4EDECULL};  // resolver-cache observation noise
  dns::LogEntry entry_;               // every DNS event, refilled in place

  std::vector<ThirdParty> third_parties_;
  std::vector<ThirdParty> iot_endpoints_;
  std::vector<std::vector<std::size_t>> iot_class_endpoints_;  // per device class
  std::vector<std::size_t> cdn_indices_;
  std::vector<Site> sites_;
  std::vector<PollingApp> apps_;
  std::vector<Host> hosts_;
  std::vector<dns::Ipv4> shared_pool_;
  std::vector<FamilyRuntime> families_;
  std::unique_ptr<util::ZipfSampler> site_zipf_;
  std::unique_ptr<util::ZipfSampler> third_party_zipf_;
  std::unique_ptr<util::ZipfSampler> shared_zipf_;
};

}  // namespace

TraceResult generate_trace(const TraceConfig& config, TraceSink& sink) {
  if (config.hosts == 0 || config.days == 0) {
    throw std::invalid_argument{"generate_trace: hosts and days must be positive"};
  }
  if (config.benign_sites == 0 || config.third_party_pool == 0) {
    throw std::invalid_argument{"generate_trace: benign pools must be non-empty"};
  }
  if (config.min_victims == 0 || config.max_victims == 0) {
    throw std::invalid_argument{
        "generate_trace: victim cohort range is zero-sized (min_victims and "
        "max_victims must both be >= 1)"};
  }
  if (config.min_victims > config.max_victims || config.max_victims > config.hosts) {
    throw std::invalid_argument{
        "generate_trace: bad victim cohort bounds (need min_victims <= max_victims <= hosts)"};
  }
  if (config.spam_domains_per_family == 0) {
    throw std::invalid_argument{
        "generate_trace: spam_domains_per_family must be >= 1 (spam/phishing "
        "families would own no domains)"};
  }
  if (config.zero_day_families > 0 && config.zero_day_activation_day != SIZE_MAX &&
      config.zero_day_activation_day >= config.days) {
    throw std::invalid_argument{
        "generate_trace: zero_day_activation_day is beyond the simulated window "
        "(the campaign would never activate)"};
  }
  if (config.zero_day_ip_reuse_fraction < 0.0 || config.zero_day_ip_reuse_fraction > 1.0) {
    throw std::invalid_argument{
        "generate_trace: zero_day_ip_reuse_fraction must be within [0, 1]"};
  }
  if (config.evasion_mimicry_rate < 0.0 || config.evasion_mimicry_rate > 1.0) {
    throw std::invalid_argument{"generate_trace: evasion_mimicry_rate must be within [0, 1]"};
  }
  if (config.evasion_families > 0 && config.evasion_cover_sites == 0) {
    throw std::invalid_argument{
        "generate_trace: evasion_cover_sites must be >= 1 when evasion families "
        "are enabled"};
  }
  if (config.iot_host_fraction < 0.0 || config.iot_host_fraction >= 1.0) {
    throw std::invalid_argument{
        "generate_trace: iot_host_fraction must be within [0, 1) (some hosts "
        "must remain general-purpose)"};
  }
  if (config.iot_host_fraction > 0.0 && config.iot_vendor_domains == 0) {
    throw std::invalid_argument{
        "generate_trace: iot_vendor_domains must be >= 1 when IoT profiles are "
        "enabled"};
  }
  Generator generator{config, sink};
  return generator.run();
}

}  // namespace dnsembed::trace
