// Integration tests for the core pipeline: graph building from log
// entries, pruning semantics, end-to-end behavior on a small synthetic
// campus, and the headline ordering of the paper's results.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <unordered_set>

#include "core/behavior.hpp"
#include "core/clustering.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "graph/io.hpp"
#include "graph_compare.hpp"
#include "trace/generator.hpp"
#include "util/artifact.hpp"

#include <sstream>

namespace dnsembed::core {
namespace {

dns::LogEntry entry(std::int64_t ts, const std::string& host, const std::string& qname,
                    std::vector<dns::Ipv4> ips = {}) {
  dns::LogEntry e;
  e.timestamp = ts;
  e.host = host;
  e.qname = qname;
  e.ttl = 60;
  e.addresses = std::move(ips);
  return e;
}

TEST(GraphBuilder, AggregatesToE2ldAndBucketsMinutes) {
  GraphBuilderSink sink;
  sink.on_dns(entry(5, "h1", "www.example.com", {dns::Ipv4{1, 1, 1, 1}}));
  sink.on_dns(entry(59, "h2", "maps.example.com", {dns::Ipv4{1, 1, 1, 2}}));
  sink.on_dns(entry(65, "h1", "example.com"));

  auto hdbg = sink.take_hdbg();
  auto dibg = sink.take_dibg();
  auto dtbg = sink.take_dtbg();
  // All three FQDNs collapse to one e2LD.
  EXPECT_EQ(hdbg.right_count(), 1u);
  EXPECT_EQ(hdbg.left_count(), 2u);
  EXPECT_EQ(hdbg.edge_count(), 2u);
  // Two distinct IPs.
  EXPECT_EQ(dibg.left_count(), 2u);
  // Timestamps 5 and 59 share minute bucket 0; 65 is bucket 1.
  EXPECT_EQ(dtbg.left_count(), 2u);
  EXPECT_EQ(dtbg.edge_count(), 2u);
}

TEST(GraphBuilder, NxdomainContributesNoIpEdges) {
  GraphBuilderSink sink;
  auto nx = entry(0, "h1", "missing.ws");
  nx.rcode = dns::RCode::kNxDomain;
  sink.on_dns(nx);
  sink.on_dns(entry(0, "h2", "missing.ws"));
  EXPECT_EQ(sink.take_dibg().left_count(), 0u);
  EXPECT_EQ(sink.take_hdbg().edge_count(), 2u);
}

TEST(GraphBuilder, RejectsBadBucket) {
  EXPECT_THROW(GraphBuilderSink(0), std::invalid_argument);
}

struct Graphs {
  graph::BipartiteGraph hdbg;
  graph::BipartiteGraph dibg;
  graph::BipartiteGraph dtbg;
};

Graphs sink_build(const std::vector<dns::LogEntry>& events) {
  GraphBuilderSink sink;
  for (const auto& e : events) sink.on_dns(e);
  return {sink.take_hdbg(), sink.take_dibg(), sink.take_dtbg()};
}

/// The by-name build the id-keyed sink replaced: every event re-derives
/// its e2LD and adds each edge by name.
Graphs by_name_build(const std::vector<dns::LogEntry>& events) {
  const auto& psl = dns::PublicSuffixList::builtin();
  Graphs g;
  for (const auto& e : events) {
    const std::string e2ld = psl.e2ld_or_self(e.qname);
    g.hdbg.add_edge(e.host, e2ld);
    g.dtbg.add_edge("m" + std::to_string(e.timestamp / 60), e2ld);
    for (const auto& ip : e.addresses) g.dibg.add_edge(ip.to_string(), e2ld);
  }
  g.hdbg.finalize();
  g.dibg.finalize();
  g.dtbg.finalize();
  return g;
}

/// The DIBG trap: interning each event's e2LD into the DIBG before (and
/// whether or not) it has an IP, instead of at its first event with
/// addresses. The comparison below must tell it apart.
graph::BipartiteGraph eager_dibg_build(const std::vector<dns::LogEntry>& events) {
  const auto& psl = dns::PublicSuffixList::builtin();
  graph::BipartiteGraph dibg;
  for (const auto& e : events) {
    const auto right = dibg.add_right(psl.e2ld_or_self(e.qname));
    for (const auto& ip : e.addresses) dibg.add_edge(dibg.add_left(ip.to_string()), right);
  }
  dibg.finalize();
  return dibg;
}

std::vector<dns::LogEntry> id_trap_events() {
  const dns::Ipv4 a{10, 0, 0, 1};
  const dns::Ipv4 b{10, 0, 0, 2};
  const dns::Ipv4 c{10, 0, 0, 3};
  return {
      // shop.test first appears without addresses; other.test has one.
      entry(0, "h1", "www.shop.test"),
      entry(10, "h2", "cdn.other.test", {c}),
      // Same e2LD, new qname, now with three addresses: the DIBG must
      // intern shop.test here, after other.test.
      entry(20, "h1", "img.shop.test", {a, b, c}),
      // Mixed case and a trailing dot normalize to the same e2LD.
      entry(30, "H3", "WWW.Shop.TEST."),
      entry(61, "h2", "www.shop.test", {b}),
      // A public suffix has no registrable e2LD: e2ld_or_self keeps it.
      entry(62, "h3", "co.uk", {a}),
      // Repeated minute buckets and a negative timestamp.
      entry(65, "h1", "cdn.other.test"),
      entry(-5, "h2", "late.example.org", {a, b}),
      entry(119, "h3", "cdn.other.test", {}),
  };
}

TEST(GraphBuilder, IdBuildMatchesByNameBuild) {
  const auto events = id_trap_events();
  const auto ids = sink_build(events);
  const auto names = by_name_build(events);
  EXPECT_TRUE(graph::same_bipartite(ids.hdbg, names.hdbg));
  EXPECT_TRUE(graph::same_bipartite(ids.dibg, names.dibg));
  EXPECT_TRUE(graph::same_bipartite(ids.dtbg, names.dtbg));
  // The trap input does exercise the fallback and separate the orders.
  EXPECT_FALSE(dns::PublicSuffixList::builtin().e2ld("co.uk").has_value());
  EXPECT_TRUE(ids.hdbg.right_names().find("co.uk").has_value());
  EXPECT_EQ(names.dibg.right_names().name(0), "other.test");
  EXPECT_FALSE(graph::same_bipartite(eager_dibg_build(events), names.dibg));
}

TEST(GraphBuilder, IdBuildMatchesByNameBuildOnSimulatedTrace) {
  trace::TraceConfig config;
  config.seed = 17;
  config.hosts = 40;
  config.days = 1;
  config.benign_sites = 150;
  config.malware_families = 4;
  config.min_victims = 3;
  config.max_victims = 8;
  trace::CollectingSink collected;
  trace::generate_trace(config, collected);
  const auto& events = collected.dns();
  ASSERT_GT(events.size(), 1000u);
  const auto ids = sink_build(events);
  const auto names = by_name_build(events);
  EXPECT_TRUE(graph::same_bipartite(ids.hdbg, names.hdbg));
  EXPECT_TRUE(graph::same_bipartite(ids.dibg, names.dibg));
  EXPECT_TRUE(graph::same_bipartite(ids.dtbg, names.dtbg));
}

TEST(GraphBuilder, GoldenArenaDigest) {
  // `dnsembed run --seed 11`'s trace stage: the payload digests its
  // manifest records for hdbg.bg, dibg.bg and dtbg.bg. Pinned, so that a
  // refactor of the sink or of the graph store keeps every id and row.
  trace::TraceConfig config;
  config.seed = 11;
  config.hosts = 200;
  config.days = 4;
  config.benign_sites = 1000;
  config.malware_families = 8;
  GraphBuilderSink sink;
  trace::generate_trace(config, sink);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dnsembed_golden_bg_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto digest = [&](const graph::BipartiteGraph& g, const char* file) {
    const std::string path = (dir / file).string();
    graph::save_bipartite_file(path, g);
    return util::payload_digest(util::load_artifact(path, graph::kBipartiteArenaKind));
  };
  EXPECT_EQ(digest(sink.take_hdbg(), "hdbg.bg"), "250cd87d36f734ac");
  EXPECT_EQ(digest(sink.take_dibg(), "dibg.bg"), "b50bc568e42e5ecd");
  EXPECT_EQ(digest(sink.take_dtbg(), "dtbg.bg"), "1d5059a52a28f04d");
  std::filesystem::remove_all(dir);
}

TEST(BehaviorModelTest, PruningAppliesAcrossAllGraphs) {
  GraphBuilderSink sink;
  // 10 hosts. "hub.com" queried by 8 (> 50%): pruned. "solo.bid" by one
  // host: pruned. "pair.com" and "pair2.com" by the same 3 hosts: kept.
  for (int h = 0; h < 8; ++h) {
    sink.on_dns(entry(h, "h" + std::to_string(h), "hub.com", {dns::Ipv4{1, 1, 1, 1}}));
  }
  sink.on_dns(entry(20, "h0", "solo.bid", {dns::Ipv4{2, 2, 2, 2}}));
  for (int h = 0; h < 3; ++h) {
    sink.on_dns(entry(60 + h, "h" + std::to_string(h), "pair.com", {dns::Ipv4{3, 3, 3, 3}}));
    sink.on_dns(entry(90 + h, "h" + std::to_string(h), "pair2.com", {dns::Ipv4{3, 3, 3, 3}}));
  }
  for (int h = 8; h < 10; ++h) {
    sink.on_dns(entry(10, "h" + std::to_string(h), "filler.com", {dns::Ipv4{4, 4, 4, 4}}));
  }

  const auto model = build_behavior_model(sink.take_hdbg(), sink.take_dibg(),
                                          sink.take_dtbg(), BehaviorModelConfig{});
  const std::unordered_set<std::string> kept{model.kept_domains.begin(),
                                             model.kept_domains.end()};
  EXPECT_FALSE(kept.contains("hub.com"));
  EXPECT_FALSE(kept.contains("solo.bid"));
  EXPECT_TRUE(kept.contains("pair.com"));
  EXPECT_TRUE(kept.contains("pair2.com"));
  EXPECT_TRUE(kept.contains("filler.com"));
  // Pruned domains are gone from every graph.
  EXPECT_FALSE(model.dibg.right_names().find("hub.com").has_value());
  EXPECT_FALSE(model.dtbg.right_names().find("hub.com").has_value());

  // pair/pair2: same hosts -> query similarity 1; same IP -> ip sim 1.
  const auto& q = model.query_similarity;
  const auto a = *graph::find_vertex(q, "pair.com");
  const auto b = *graph::find_vertex(q, "pair2.com");
  ASSERT_TRUE(q.has_edge(a, b));
  const auto& i = model.ip_similarity;
  ASSERT_TRUE(i.has_edge(*graph::find_vertex(i, "pair.com"),
                              *graph::find_vertex(i, "pair2.com")));
}

TEST(BehaviorModelTest, ShortKeptDomainsKeepTheirNames) {
  // Two kept domains whose names total 8 bytes: the similarity graphs are
  // moved into the model, and their names must move with them.
  GraphBuilderSink sink;
  for (int h = 0; h < 3; ++h) {
    sink.on_dns(entry(10 + h, "h" + std::to_string(h), "a.io", {dns::Ipv4{5, 5, 5, 5}}));
    sink.on_dns(entry(70 + h, "h" + std::to_string(h), "b.io", {dns::Ipv4{5, 5, 5, 5}}));
  }
  for (int h = 3; h < 10; ++h) {
    sink.on_dns(entry(20, "h" + std::to_string(h), "s" + std::to_string(h) + ".io"));
  }
  const auto model = build_behavior_model(sink.take_hdbg(), sink.take_dibg(),
                                          sink.take_dtbg(), BehaviorModelConfig{});
  ASSERT_EQ(model.kept_domains, (std::vector<std::string>{"a.io", "b.io"}));
  for (const auto* g : {&model.query_similarity, &model.ip_similarity,
                        &model.temporal_similarity}) {
    ASSERT_EQ(g->vertex_count(), model.kept_domains.size());
    for (graph::VertexId i = 0; i < g->vertex_count(); ++i) {
      EXPECT_EQ(g->name(i), model.kept_domains[i]);
    }
    EXPECT_EQ(g->names_copy(), model.kept_domains);
  }
}

TEST(Detector, DatasetAlignsEmbeddingRowsWithLabels) {
  embed::EmbeddingMatrix embedding{{"a.com", "b.bid"}, 2};
  embedding.row(0)[0] = 1.0f;
  embedding.row(1)[1] = -1.0f;
  intel::LabeledSet labels;
  labels.domains = {"b.bid", "a.com", "missing.com"};
  labels.labels = {1, 0, 0};
  const auto data = make_dataset(embedding, labels);
  EXPECT_EQ(data.size(), 3u);
  EXPECT_DOUBLE_EQ(data.x.at(0, 1), -1.0);  // b.bid row
  EXPECT_DOUBLE_EQ(data.x.at(1, 0), 1.0);   // a.com row
  EXPECT_DOUBLE_EQ(data.x.at(2, 0), 0.0);   // missing -> zeros
  EXPECT_EQ(data.names[0], "b.bid");
}

// One shared fixture running the full pipeline once on a small campus.
class SmallPipeline : public ::testing::Test {
 protected:
  static PipelineConfig config() {
    PipelineConfig cfg;
    cfg.trace.seed = 11;
    cfg.trace.hosts = 80;
    cfg.trace.days = 3;
    cfg.trace.benign_sites = 400;
    cfg.trace.third_party_pool = 80;
    cfg.trace.interests_per_host = 50;
    cfg.trace.polling_apps = 10;
    cfg.trace.malware_families = 5;
    cfg.trace.min_victims = 5;
    cfg.trace.max_victims = 15;
    cfg.trace.dga_domains_per_day = 10;
    cfg.trace.spam_domains_per_family = 20;
    cfg.embedding_dimension = 16;
    cfg.embedding.line.total_samples = 800'000;
    cfg.kfold = 5;
    cfg.svm.c = 1.0;       // small data: the paper's tiny C underfits here
    cfg.svm.gamma = 0.5;
    cfg.seed = 5;
    return cfg;
  }

  static void SetUpTestSuite() { result_ = new PipelineResult{run_pipeline(config())}; }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }

  static PipelineResult* result_;
};

PipelineResult* SmallPipeline::result_ = nullptr;

TEST_F(SmallPipeline, ProducesConsistentStructures) {
  const auto& r = *result_;
  EXPECT_GT(r.model.kept_domains.size(), 100u);
  EXPECT_EQ(r.combined_embedding.size(), r.model.kept_domains.size());
  EXPECT_EQ(r.combined_embedding.dimension(), 3u * 16u);
  EXPECT_GT(r.labels.size(), 50u);
  const double frac = static_cast<double>(r.labels.malicious_count()) /
                      static_cast<double>(r.labels.size());
  EXPECT_NEAR(frac, 0.3, 0.05);
  EXPECT_FALSE(r.flows.empty());
}

TEST_F(SmallPipeline, CombinedChannelDetectsWell) {
  const auto eval = evaluate_svm(make_dataset(result_->combined_embedding, result_->labels),
                                 config().svm, 5, 3);
  EXPECT_GT(eval.auc, 0.85) << "combined AUC too low";
}

TEST_F(SmallPipeline, QueryChannelBeatsTemporalChannel) {
  const auto evals = evaluate_channels(*result_, config());
  // Paper Fig. 7 ordering: query > temporal, combined >= best individual.
  EXPECT_GT(evals.query.auc, evals.temporal.auc);
  EXPECT_GT(evals.combined.auc, evals.temporal.auc);
  EXPECT_GT(evals.combined.auc, 0.85);
}

TEST_F(SmallPipeline, ClustersRecoverFamilies) {
  ml::XMeansConfig xm;
  xm.k_min = 4;
  xm.k_max = 32;
  xm.seed = 9;
  const auto clusters =
      cluster_domains(result_->combined_embedding, result_->model.kept_domains,
                      result_->trace.truth, xm);
  ASSERT_GE(clusters.k, 4u);
  // The top malicious cluster should be family-dominated (Tables 1-2).
  const auto& top = clusters.clusters.front();
  EXPECT_GT(top.malicious_fraction(), 0.8);
  EXPECT_GT(top.dominant_family_count, top.domains.size() / 2);
}

TEST_F(SmallPipeline, TrafficPatternsJoinFlowsToClusters) {
  ml::XMeansConfig xm;
  xm.k_min = 4;
  xm.k_max = 32;
  xm.seed = 9;
  const auto clusters =
      cluster_domains(result_->combined_embedding, result_->model.kept_domains,
                      result_->trace.truth, xm);
  const auto pattern =
      traffic_pattern_for(clusters.clusters.front(), result_->trace.truth, result_->flows);
  EXPECT_GT(pattern.flows, 0u);
  EXPECT_GT(pattern.distinct_hosts, 0u);
  EXPECT_FALSE(pattern.server_ips.empty());
  EXPECT_FALSE(pattern.ports.empty());
}

TEST_F(SmallPipeline, DetectorScoresKnownDomains) {
  const DomainDetector detector{result_->combined_embedding, result_->labels, config().svm};
  // Score every labeled domain with the deployed model (in-sample sanity).
  double malicious_mean = 0.0;
  double benign_mean = 0.0;
  std::size_t m = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < result_->labels.size(); ++i) {
    const double s = detector.score(result_->labels.domains[i]);
    if (result_->labels.labels[i] == 1) {
      malicious_mean += s;
      ++m;
    } else {
      benign_mean += s;
      ++b;
    }
  }
  ASSERT_GT(m, 0u);
  ASSERT_GT(b, 0u);
  EXPECT_GT(malicious_mean / static_cast<double>(m), benign_mean / static_cast<double>(b));
}



TEST_F(SmallPipeline, CalibratedProbabilitiesSeparateClasses) {
  core::DomainDetector detector{result_->combined_embedding, result_->labels, config().svm};
  EXPECT_FALSE(detector.calibrated());
  EXPECT_THROW(detector.probability("anything.com"), std::logic_error);
  detector.calibrate(result_->labels, 4, 2);
  ASSERT_TRUE(detector.calibrated());
  double malicious_mean = 0.0;
  double benign_mean = 0.0;
  std::size_t m = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < result_->labels.size(); ++i) {
    const double p = detector.probability(result_->labels.domains[i]);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if (result_->labels.labels[i] == 1) {
      malicious_mean += p;
      ++m;
    } else {
      benign_mean += p;
      ++b;
    }
  }
  malicious_mean /= static_cast<double>(m);
  benign_mean /= static_cast<double>(b);
  EXPECT_GT(malicious_mean, 0.6);
  EXPECT_LT(benign_mean, 0.4);
}

TEST_F(SmallPipeline, ReportRendersAllSections) {
  const auto evals = evaluate_channels(*result_, config());
  ml::XMeansConfig xm;
  xm.k_min = 4;
  xm.k_max = 24;
  xm.seed = 9;
  const auto clusters =
      cluster_domains(result_->combined_embedding, result_->model.kept_domains,
                      result_->trace.truth, xm);
  std::ostringstream out;
  write_detection_report(out, *result_, evals, clusters);
  const std::string report = out.str();
  EXPECT_NE(report.find("# dnsembed detection report"), std::string::npos);
  EXPECT_NE(report.find("## Traffic and behavioral model"), std::string::npos);
  EXPECT_NE(report.find("## Detection quality"), std::string::npos);
  EXPECT_NE(report.find("## Most suspicious clusters"), std::string::npos);
  EXPECT_NE(report.find("| DNS events | "), std::string::npos);
  EXPECT_NE(report.find("traffic: "), std::string::npos);
  // No placeholder artifacts.
  EXPECT_EQ(report.find("nan"), std::string::npos);
}

}  // namespace
}  // namespace dnsembed::core
