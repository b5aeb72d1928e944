// Property-based tests: randomized inputs checked against brute-force
// reference implementations or algebraic invariants. Parameterized over
// seeds/sizes with INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "dns/dhcp.hpp"
#include "dns/name.hpp"
#include "dns/public_suffix.hpp"
#include "dns/wire.hpp"
#include "embed/alias.hpp"
#include "embed/line.hpp"
#include "graph/bipartite.hpp"
#include "graph/projection.hpp"
#include "graph_compare.hpp"
#include "ml/crossval.hpp"
#include "ml/kmeans.hpp"
#include "ml/metrics.hpp"
#include "ml/svm.hpp"
#include "trace/namegen.hpp"
#include "util/rng.hpp"

namespace dnsembed {
namespace {

// ---------------------------------------------------------------------
// Projection == brute-force Jaccard on random bipartite graphs.

class ProjectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProjectionProperty, MatchesBruteForceJaccard) {
  util::Rng rng{GetParam()};
  const std::size_t hosts = 5 + rng.uniform_index(20);
  const std::size_t domains = 5 + rng.uniform_index(30);
  const std::size_t edges = 10 + rng.uniform_index(200);

  graph::BipartiteGraph g;
  std::vector<std::set<std::size_t>> hosts_of(domains);
  for (std::size_t e = 0; e < edges; ++e) {
    const std::size_t h = rng.uniform_index(hosts);
    const std::size_t d = rng.uniform_index(domains);
    g.add_edge("h" + std::to_string(h), "d" + std::to_string(d));
    hosts_of[d].insert(h);
  }
  g.finalize();

  const auto sim = graph::project_right(g);

  // Brute force over all domain pairs that appear in the graph.
  for (std::size_t a = 0; a < domains; ++a) {
    const auto ida = g.right_names().find("d" + std::to_string(a));
    if (!ida) continue;
    for (std::size_t b = a + 1; b < domains; ++b) {
      const auto idb = g.right_names().find("d" + std::to_string(b));
      if (!idb) continue;
      std::size_t inter = 0;
      for (const std::size_t h : hosts_of[a]) inter += hosts_of[b].count(h);
      const std::size_t uni = hosts_of[a].size() + hosts_of[b].size() - inter;
      const double expected = uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
      if (inter == 0) {
        EXPECT_FALSE(sim.has_edge(*ida, *idb));
      } else {
        ASSERT_TRUE(sim.has_edge(*ida, *idb)) << "d" << a << ", d" << b;
        const auto row = sim.neighbors(*ida);
        const auto at = std::lower_bound(row.begin(), row.end(), *idb) - row.begin();
        EXPECT_NEAR(sim.neighbor_weights(*ida)[at], expected, 1e-12);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------------------------
// Alias table reproduces arbitrary random distributions.

class AliasProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AliasProperty, EmpiricalMatchesPmf) {
  util::Rng rng{GetParam()};
  const std::size_t n = 2 + rng.uniform_index(40);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.bernoulli(0.2) ? 0.0 : rng.uniform() * 10.0;
  weights[rng.uniform_index(n)] += 1.0;  // ensure positive total

  const embed::AliasTable table{weights};
  double total = 0.0;
  for (const double w : weights) total += w;

  const int draws = 60000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < draws; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = weights[i] / total;
    EXPECT_NEAR(counts[i] / static_cast<double>(draws), expected,
                0.02 + 3.0 * std::sqrt(expected / draws))
        << "bucket " << i;
    EXPECT_NEAR(table.probability(i), expected, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AliasProperty, ::testing::Values(11, 12, 13, 14, 15, 16));

// ---------------------------------------------------------------------
// AUC properties: equals Mann-Whitney brute force; invariant under
// monotone transforms; 1 - AUC under score negation.

class AucProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AucProperty, MatchesMannWhitneyAndInvariances) {
  util::Rng rng{GetParam()};
  const std::size_t n = 20 + rng.uniform_index(200);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  labels[0] = 1;  // ensure both classes
  labels[1] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= 2) labels[i] = rng.bernoulli(0.3) ? 1 : 0;
    // Discretized scores to exercise tie handling.
    scores[i] = std::floor(rng.normal(labels[i], 1.2) * 4.0) / 4.0;
  }

  // Brute-force Mann-Whitney.
  double wins = 0.0;
  double pairs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != 1) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (labels[j] != 0) continue;
      pairs += 1.0;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  const double expected = wins / pairs;
  EXPECT_NEAR(ml::roc_auc(scores, labels), expected, 1e-10);

  // Monotone transform invariance.
  auto transformed = scores;
  for (auto& s : transformed) s = std::exp(0.5 * s) + 3.0;
  EXPECT_NEAR(ml::roc_auc(transformed, labels), expected, 1e-10);

  // Negation flips.
  auto negated = scores;
  for (auto& s : negated) s = -s;
  EXPECT_NEAR(ml::roc_auc(negated, labels), 1.0 - expected, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucProperty,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---------------------------------------------------------------------
// SMO result satisfies the dual constraints and KKT conditions.

class SvmKktProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SvmKktProperty, DualFeasibleAndMarginConsistent) {
  util::Rng rng{GetParam()};
  const std::size_t per_class = 30 + rng.uniform_index(40);
  ml::Dataset data;
  data.x = ml::Matrix{per_class * 2, 3};
  data.y.resize(per_class * 2);
  const double sep = rng.uniform(1.0, 4.0);
  for (std::size_t i = 0; i < per_class * 2; ++i) {
    const int label = i < per_class ? 0 : 1;
    data.y[i] = label;
    for (std::size_t d = 0; d < 3; ++d) {
      data.x.at(i, d) = rng.normal() + (label == 1 && d == 0 ? sep : 0.0);
    }
  }
  ml::SvmConfig config;
  config.c = 1.0;
  config.gamma = 0.5;
  config.tolerance = 1e-4;
  const auto model = ml::train_svm(data, config);

  // Support vectors exist and coefficients respect the box constraint
  // |alpha_i y_i| <= C.
  ASSERT_GT(model.support_vector_count(), 0u);

  // KKT: for every training point, y*f(x) >= 1 - eps unless it is inside
  // the (soft) margin; no point may sit far on the wrong side unless C
  // permits slack — with separable data and C=1, gross violations mean the
  // solver failed.
  std::size_t violations = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double f = model.decision_value(data.x.row(i));
    const double yf = (data.y[i] == 1 ? 1.0 : -1.0) * f;
    if (yf < -1.0 - 1e-6) ++violations;
  }
  EXPECT_LE(violations, data.size() / 20);

  // Decision values are symmetric under class-consistent scoring: AUC on
  // training data must be far above chance.
  EXPECT_GT(ml::roc_auc(model.decision_values(data.x), data.y), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvmKktProperty, ::testing::Values(31, 32, 33, 34, 35));

// ---------------------------------------------------------------------
// Wire codec: random messages round-trip; random byte soup never crashes.

class WireFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

dns::ResourceRecord random_rr(util::Rng& rng) {
  static const char* names[] = {"a.example.com", "b.example.com", "x.co.uk", "deep.a.b.c.org"};
  static const dns::QType types[] = {dns::QType::kA,   dns::QType::kNs, dns::QType::kCname,
                                     dns::QType::kPtr, dns::QType::kMx, dns::QType::kTxt,
                                     dns::QType::kAaaa};
  dns::ResourceRecord rr;
  rr.name = names[rng.uniform_index(4)];
  rr.type = types[rng.uniform_index(7)];
  rr.ttl = static_cast<std::uint32_t>(rng.uniform_index(100000));
  switch (rr.type) {
    case dns::QType::kA:
      rr.address = dns::Ipv4{static_cast<std::uint32_t>(rng())};
      break;
    case dns::QType::kAaaa:
      for (auto& b : rr.address6.bytes) b = static_cast<std::uint8_t>(rng());
      break;
    case dns::QType::kMx:
      rr.mx_preference = static_cast<std::uint16_t>(rng());
      rr.target = names[rng.uniform_index(4)];
      break;
    case dns::QType::kTxt: {
      const std::size_t len = rng.uniform_index(600);
      rr.target.clear();
      for (std::size_t i = 0; i < len; ++i) {
        rr.target += static_cast<char>('a' + rng.uniform_index(26));
      }
      break;
    }
    default:
      rr.target = names[rng.uniform_index(4)];
  }
  return rr;
}

TEST_P(WireFuzzProperty, RandomMessagesRoundTrip) {
  util::Rng rng{GetParam()};
  for (int round = 0; round < 50; ++round) {
    dns::Message msg;
    msg.id = static_cast<std::uint16_t>(rng());
    msg.is_response = rng.bernoulli(0.5);
    msg.recursion_desired = rng.bernoulli(0.5);
    msg.recursion_available = rng.bernoulli(0.5);
    msg.authoritative = rng.bernoulli(0.3);
    msg.rcode = rng.bernoulli(0.2) ? dns::RCode::kNxDomain : dns::RCode::kNoError;
    const std::size_t q = rng.uniform_index(3);
    for (std::size_t i = 0; i < q; ++i) {
      msg.questions.push_back(
          dns::Question{"q" + std::to_string(i) + ".example.com", dns::QType::kA});
    }
    const std::size_t an = rng.uniform_index(6);
    for (std::size_t i = 0; i < an; ++i) msg.answers.push_back(random_rr(rng));
    const std::size_t ns = rng.uniform_index(3);
    for (std::size_t i = 0; i < ns; ++i) msg.authority.push_back(random_rr(rng));

    const auto wire = dns::encode(msg);
    const auto decoded = dns::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, msg);
  }
}

TEST_P(WireFuzzProperty, RandomBytesNeverCrash) {
  util::Rng rng{GetParam() ^ 0xF00DULL};
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> soup(rng.uniform_index(120));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng());
    (void)dns::decode(soup);  // must not crash or hang
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzProperty, ::testing::Values(41, 42, 43, 44));

// ---------------------------------------------------------------------
// Public-suffix extraction: idempotent, suffix-preserving, stable under
// subdomain prefixing — across generated names.

class PslProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PslProperty, E2ldInvariants) {
  util::Rng rng{GetParam()};
  const auto& psl = dns::PublicSuffixList::builtin();
  for (int i = 0; i < 300; ++i) {
    std::string name;
    switch (rng.uniform_index(4)) {
      case 0: name = trace::benign_site_name(rng); break;
      case 1: name = trace::brandable_site_name(rng); break;
      case 2: name = trace::spam_name(rng); break;
      default: name = trace::dga_name(rng(), 0, 0); break;
    }
    const std::string e2ld = psl.e2ld_or_self(name);
    // Idempotence.
    EXPECT_EQ(psl.e2ld_or_self(e2ld), e2ld) << name;
    // The e2LD is a suffix of the input at a label boundary.
    EXPECT_TRUE(dns::is_subdomain_of(dns::normalize_name(name), e2ld)) << name;
    // Prefixing a subdomain never changes the e2LD.
    EXPECT_EQ(psl.e2ld_or_self("www7." + name), e2ld) << name;
    EXPECT_EQ(psl.e2ld_or_self("a.b." + name), e2ld) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PslProperty, ::testing::Values(51, 52, 53));

// ---------------------------------------------------------------------
// DHCP table equals brute-force interval scan.

class DhcpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DhcpProperty, LookupMatchesLinearScan) {
  util::Rng rng{GetParam()};
  dns::DhcpTable table;
  struct Lease {
    std::string mac;
    std::uint32_t ip;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Lease> leases;
  // Non-overlapping per IP by construction: sequential slots with gaps.
  for (std::uint32_t ip = 1; ip <= 20; ++ip) {
    std::int64_t t = static_cast<std::int64_t>(rng.uniform_index(50));
    const std::size_t n = rng.uniform_index(6);
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t len = 1 + static_cast<std::int64_t>(rng.uniform_index(100));
      const std::string mac = "mac-" + std::to_string(rng.uniform_index(10));
      leases.push_back({mac, ip, t, t + len});
      t += len + static_cast<std::int64_t>(rng.uniform_index(30));
    }
  }
  rng.shuffle(leases);
  for (const auto& l : leases) table.add_lease({l.mac, dns::Ipv4{l.ip}, l.start, l.end});

  for (int probe = 0; probe < 2000; ++probe) {
    const std::uint32_t ip = 1 + static_cast<std::uint32_t>(rng.uniform_index(20));
    const auto t = static_cast<std::int64_t>(rng.uniform_index(700));
    std::optional<std::string> expected;
    for (const auto& l : leases) {
      if (l.ip == ip && t >= l.start && t < l.end) expected = l.mac;
    }
    EXPECT_EQ(table.device_for(dns::Ipv4{ip}, t), expected) << "ip " << ip << " t " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DhcpProperty, ::testing::Values(61, 62, 63, 64));

// ---------------------------------------------------------------------
// Stratified k-fold: partition + per-fold class balance for random labels.

class KFoldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KFoldProperty, PartitionAndBalance) {
  util::Rng rng{GetParam()};
  const std::size_t n = 50 + rng.uniform_index(500);
  std::vector<int> labels(n);
  labels[0] = 1;
  labels[1] = 0;
  for (std::size_t i = 2; i < n; ++i) labels[i] = rng.bernoulli(0.3) ? 1 : 0;
  const std::size_t k = 2 + rng.uniform_index(9);

  const auto folds = ml::stratified_kfold(labels, k, GetParam());
  ASSERT_EQ(folds.size(), k);
  std::vector<int> seen(n, 0);
  const auto total_pos = static_cast<double>(std::count(labels.begin(), labels.end(), 1));
  for (const auto& fold : folds) {
    EXPECT_FALSE(fold.empty());
    double pos = 0;
    for (const std::size_t i : fold) {
      ++seen[i];
      pos += labels[i];
    }
    // Per-fold positive count within +-1 of the ideal share.
    EXPECT_NEAR(pos, total_pos / static_cast<double>(k), 1.0001);
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KFoldProperty, ::testing::Values(71, 72, 73, 74, 75));

// ---------------------------------------------------------------------
// k-means: inertia never worse than the trivial single-centroid fit, and
// k = n gives zero inertia.

class KMeansProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KMeansProperty, InertiaBounds) {
  util::Rng rng{GetParam()};
  const std::size_t n = 20 + rng.uniform_index(60);
  ml::Matrix x{n, 2};
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = rng.uniform(-5, 5);
    x.at(i, 1) = rng.uniform(-5, 5);
  }
  ml::KMeansConfig one;
  one.k = 1;
  one.seed = GetParam();
  const double inertia1 = ml::kmeans(x, one).inertia;

  ml::KMeansConfig some;
  some.k = 1 + rng.uniform_index(n - 1);
  some.seed = GetParam();
  const auto mid = ml::kmeans(x, some);
  EXPECT_LE(mid.inertia, inertia1 + 1e-9);
  for (const auto c : mid.assignment) EXPECT_LT(c, some.k);

  ml::KMeansConfig all;
  all.k = n;
  all.seed = GetParam();
  EXPECT_NEAR(ml::kmeans(x, all).inertia, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KMeansProperty, ::testing::Values(81, 82, 83, 84));


// ---------------------------------------------------------------------
// Embedders separate random planted-community graphs across seeds.

class EmbeddingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmbeddingProperty, PlantedCommunitiesSeparate) {
  util::Rng rng{GetParam()};
  const std::size_t communities = 2 + rng.uniform_index(3);
  const std::size_t size = 9 + rng.uniform_index(5);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < communities; ++c) {
    for (std::size_t i = 0; i < size; ++i) {
      names.push_back("c" + std::to_string(c) + "_" + std::to_string(i));
    }
  }
  // Dense intra-community edges, sparse weak inter-community edges.
  std::vector<graph::Edge> edges;
  for (std::size_t c = 0; c < communities; ++c) {
    const auto base = static_cast<graph::VertexId>(c * size);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        if (rng.bernoulli(0.85)) {
          edges.push_back({base + static_cast<graph::VertexId>(i),
                           base + static_cast<graph::VertexId>(j), rng.uniform(0.5, 1.0)});
        }
      }
    }
  }
  for (std::size_t c = 1; c < communities; ++c) {
    edges.push_back({static_cast<graph::VertexId>((c - 1) * size),
                     static_cast<graph::VertexId>(c * size), 0.05});
  }
  const auto g = graph::make_graph(names, edges);

  embed::LineConfig config;
  config.dimension = 16;
  config.total_samples = 400'000;
  config.seed = GetParam();
  const auto m = embed::train_line(g, config);

  double intra = 0.0;
  double inter = 0.0;
  std::size_t ni = 0;
  std::size_t nx = 0;
  const std::size_t n = communities * size;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double cos = m.cosine(i, j);
      if (i / size == j / size) {
        intra += cos;
        ++ni;
      } else {
        inter += cos;
        ++nx;
      }
    }
  }
  EXPECT_GT(intra / static_cast<double>(ni), inter / static_cast<double>(nx) + 0.1)
      << communities << " communities of " << size;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingProperty, ::testing::Values(91, 92, 93, 94, 95));

}  // namespace
}  // namespace dnsembed
