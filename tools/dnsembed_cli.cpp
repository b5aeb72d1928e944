// dnsembed — command-line front end to the library. Subcommands cover the
// deployment workflow end to end:
//
//   simulate   generate a campus trace (log, optional pcap, labels CSV)
//   convert    parse a pcap capture into the joined log format
//   embed      log -> similarity graphs -> LINE embeddings (artifact file)
//   detect     embeddings + labels -> k-fold cross-validated ROC/AUC
//   score      embeddings + labels -> decision values for given domains
//   cluster    embeddings -> X-Means cluster assignments (CSV)
//   run        resumable end-to-end pipeline under a --workdir (crash-safe
//              stage artifacts + manifest; --resume skips valid stages)
//   faultsim   sweep fault-injection severities over the full ingest +
//              streaming-detection chain; report degradation curves (JSON)
//   serve      long-running scoring daemon: lock-free domain->score index
//              with snapshot-swap artifact reload; unindexed domains are
//              scored inline by the SVM
//
// Durable intermediates (embeddings, models, labeled sets, run artifacts)
// are written atomically as versioned, checksummed containers; loaders
// reject damage with a "corrupt artifact" error instead of misparsing.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage, 3 cannot open an
// input file (message carries filename + errno), 4 stage deadline, 5 tasks
// quarantined (report written but partial).
//
// Example session:
//   dnsembed simulate --out trace.log --labels labels.csv --hosts 300 --days 5
//   dnsembed embed    --log trace.log --out emb.bin --dim 32
//   dnsembed detect   --embeddings emb.bin --labels labels.csv --kfold 10
//   dnsembed run      --workdir run1 --hosts 300 --days 5
//   dnsembed run      --workdir run1 --resume   # no-op: all stages valid
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/behavior.hpp"
#include "core/clustering.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/run.hpp"
#include "core/scenario.hpp"
#include "core/streaming.hpp"
#include "graph/io.hpp"
#include "dns/capture_io.hpp"
#include "dns/log_io.hpp"
#include "dns/pcap.hpp"
#include "embed/embedder.hpp"
#include "fault/entry_faults.hpp"
#include "fault/io_faults.hpp"
#include "fault/label_faults.hpp"
#include "fault/packet_faults.hpp"
#include "fault/plan.hpp"
#include "intel/labels.hpp"
#include "ml/xmeans.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "trace/generator.hpp"
#include "trace/pcap_sink.hpp"
#include "util/args.hpp"
#include "util/artifact.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace dnsembed;

int usage() {
  std::fprintf(stderr, R"(usage: dnsembed <command> [options]

commands:
  simulate  --out FILE [--labels FILE] [--pcap FILE] [--hosts N] [--days N]
            [--families N] [--sites N] [--seed N] [--campaign-seed N]
            [--zero-day N] [--zero-day-activation DAY] [--zero-day-ip-reuse X]
            [--evasion N] [--mimicry-rate X] [--cover-sites N]
            [--iot-fraction X]
            (adversarial scenario knobs: zero-day families are silent until
             the activation day [default: mid-window] and reuse serving IPs
             from earlier families; evasion families wrap C&C contacts in
             benign cover-site queries at the mimicry rate; --iot-fraction
             turns hosts into narrow, bursty embedded devices. The same
             flags work on report/run/advsim.)
  convert   --pcap FILE --out FILE
  graphs    --log FILE --out-prefix PATH [--min-similarity X]
  embed     --log FILE --out FILE [--dim N] [--method line|deepwalk|node2vec]
            [--samples N] [--min-similarity X] [--seed N]
            (--threads is accepted and ignored: LINE trains on one thread)
  detect    --embeddings FILE --labels FILE [--kfold N] [--svm-c X]
            [--svm-gamma X] [--roc FILE]
  train     --embeddings FILE --labels FILE --out MODEL [--svm-c X]
            [--svm-gamma X]
  score     --embeddings FILE --domains a.com,b.net
            (--model MODEL | --labels FILE [--svm-c X] [--svm-gamma X])
  cluster   --embeddings FILE --out FILE [--kmin N] [--kmax N] [--seed N]
  report    --out report.md [--hosts N] [--days N] [--sites N] [--families N]
            [--seed N] [--samples N] [--no-streaming]
            (one-shot: simulate + model + embed + evaluate + cluster +
             streaming replay)
  run       --workdir DIR [--resume] [--stage-deadline SECONDS] [--hosts N]
            [--days N] [--sites N] [--families N] [--seed N] [--dim N]
            [--samples N] [--kfold N] [--svm-c X] [--svm-gamma X]
            [--workers N] [--max-retries N]
            [--heartbeat-interval SECONDS] [--heartbeat-timeout SECONDS]
            [--status-out FILE]
            [--fault-crash R] [--fault-hang R] [--fault-garbage R]
            [--fault-max-per-task N] [--fault-target PREFIX] [--fault-seed N]
            (resumable pipeline: each stage commits atomic checksummed
             artifacts + a manifest under DIR; --resume skips stages whose
             artifacts still validate and recomputes anything missing,
             corrupt, or built under a different config; final output is
             DIR/report.md. exit 4 = a stage exceeded --stage-deadline.
             --line-threads is accepted and ignored: LINE trains on one
             thread.
             --workers N >= 1 forks supervised worker processes: each
             channel's projection and each channel's LINE training run in
             a child that exchanges results only through checksummed
             artifacts, with heartbeat watchdog, bounded retry/backoff, and
             quarantine of a projection task after --max-retries; the
             report stays byte-identical to --workers 0 at any worker
             count. exit 5 = one or more tasks quarantined (report written
             but partial: a quarantined channel's graph is edgeless).
             --fault-* inject seeded worker crash/hang/garbage faults for
             testing.
             --status-out FILE atomically rewrites a live JSON status file
             with per-task state/attempt/heartbeat age/rusage while the
             supervisor runs; workers also write telemetry sidecars the
             supervisor merges, so --metrics-out/--trace-out cover the
             whole process tree with one trace lane per worker task)
  faultsim  --out report.json [--hosts N] [--days N] [--sites N] [--families N]
            [--seed N] [--severities 0,0.25,0.5,1] [--samples N] [--window N]
            [--label-delay N] [--kfold N] [--no-streaming]
            (sweep fault severities over export -> faults -> import ->
             detect; also drives the artifact I/O fault channel: transient
             EIO, torn writes, payload bit flips; emit degradation JSON)
  advsim    --out report.json [--hosts N] [--days N] [--sites N] [--families N]
            [--seed N] [--mimicry 0,0.25,0.5,1] [--samples N] [--kfold N]
            [--dim N] [--zero-day N] [--evasion N] [--iot-fraction X]
            (adversarial sweep: one clean pipeline run, then one run per
             mimicry rate with zero-day + evasion campaigns and IoT hosts
             enabled; emits per-scenario recall/precision/AUC and
             seed-expansion reach as JSON)
  serve     --embeddings FILE --model MODEL [--index-limit N] [--threads N]
            [--status-out FILE] [--status-every N]
            (scoring daemon: precomputes a lock-free domain->score index
             from the artifacts and answers one domain per stdin line as
             "<score>\t<verdict>\t<source>\t<domain>"; embedded domains
             past --index-limit are scored inline by the SVM (source
             "batched"). Replies are flushed once the buffered input is
             drained. Control lines: !reload rebuilds + atomically swaps
             the artifact snapshot without blocking readers, !stats prints
             counters JSON, !quit/EOF exits. --status-out atomically
             rewrites a JSON status file while serving.)

global options (any command):
  --log-level debug|info|warn|error   minimum stderr log level
                                      (env fallback: DNSEMBED_LOG)
  --metrics-out FILE                  write a metrics snapshot on exit
  --metrics-format json|prom          snapshot format (default: json)
  --trace-out FILE                    write Chrome trace_event JSON on exit
                                      (load in Perfetto / chrome://tracing)

exit codes: 0 ok, 1 failure, 2 usage, 3 unreadable input file, 4 deadline,
            5 degraded (quarantined shards; partial report written)
)");
  return 2;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "dnsembed: %s\n", message.c_str());
  return 1;
}

constexpr int kExitInputError = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitQuarantine = 5;

/// Probe an input file before handing it to a parser. Returns 0 when it
/// opens; otherwise reports the filename and errno and returns the
/// dedicated input-error exit code so scripts can distinguish "file
/// missing/unreadable" from a pipeline failure.
int check_input(const std::string& path) {
  std::ifstream probe{path};
  if (probe) return 0;
  const int err = errno;
  std::fprintf(stderr, "dnsembed: cannot open input '%s': %s (errno %d)\n", path.c_str(),
               std::strerror(err), err);
  return kExitInputError;
}

// ------------------------------------------------------------- simulate

void adversarial_from_args(const util::ArgParser& args, trace::TraceConfig& config);

/// Sink writing the joined log.
class FileLogSink final : public trace::TraceSink {
 public:
  explicit FileLogSink(const std::string& path) : out_{path}, writer_{out_} {
    if (!out_) throw std::runtime_error{"cannot open " + path};
  }
  void on_dns(const dns::LogEntry& entry) override { writer_.write(entry); }

 private:
  std::ofstream out_;
  dns::LogWriter writer_;
};

int cmd_simulate(const util::ArgParser& args) {
  const auto out_path = args.get("--out");
  if (!out_path) return fail("simulate: --out is required");

  trace::TraceConfig config;
  config.hosts = static_cast<std::size_t>(args.get_int_or("--hosts", 300));
  config.days = static_cast<std::size_t>(args.get_int_or("--days", 5));
  config.benign_sites = static_cast<std::size_t>(args.get_int_or("--sites", 1800));
  config.malware_families = static_cast<std::size_t>(args.get_int_or("--families", 10));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 42));
  config.campaign_seed = static_cast<std::uint64_t>(args.get_int_or("--campaign-seed", 0));
  adversarial_from_args(args, config);

  util::Stopwatch watch;
  FileLogSink log_sink{*out_path};
  std::vector<trace::TraceSink*> sinks{&log_sink};
  std::ofstream pcap_out;
  std::optional<trace::PcapStreamSink> pcap_sink;
  const auto pcap_path = args.get("--pcap");
  if (pcap_path) {
    pcap_out.open(*pcap_path, std::ios::binary);
    if (!pcap_out) return fail("cannot open " + *pcap_path);
    pcap_sink.emplace(pcap_out);
    sinks.push_back(&*pcap_sink);
  }
  trace::TeeSink tee{sinks};
  const auto result = trace::generate_trace(config, tee);
  std::printf("wrote %zu DNS events to %s (%.1fs)\n", result.dns_events, out_path->c_str(),
              watch.seconds());
  if (pcap_sink) {
    std::printf("wrote %zu packets to %s (streamed)\n", pcap_sink->packets_written(),
                pcap_path->c_str());
  }

  if (const auto labels_path = args.get("--labels")) {
    // CSV payload inside a checksummed container, committed atomically: the
    // rows stay grep-able, and a torn write can't masquerade as a shorter
    // (but valid-looking) label file.
    std::ostringstream labels_out;
    util::CsvWriter csv{labels_out};
    csv.write_row({"domain", "label", "family"});
    for (const auto& domain : result.truth.benign_domains()) {
      csv.write_row({domain, "0", ""});
    }
    for (const auto& family : result.truth.families()) {
      for (const auto& domain : family.domains) {
        csv.write_row({domain, "1", family.name});
      }
    }
    util::save_artifact(*labels_path, "label-csv", labels_out.str());
    std::printf("wrote %zu labels to %s\n",
                result.truth.benign_count() + result.truth.malicious_count(),
                labels_path->c_str());
  }
  return 0;
}

// -------------------------------------------------------------- convert

int cmd_convert(const util::ArgParser& args) {
  const auto pcap_path = args.get("--pcap");
  const auto out_path = args.get("--out");
  if (!pcap_path || !out_path) return fail("convert: --pcap and --out are required");
  if (const int rc = check_input(*pcap_path)) return rc;
  std::ifstream in{*pcap_path, std::ios::binary};
  if (!in) return fail("cannot open " + *pcap_path);
  const auto imported = dns::import_pcap(in);
  std::ofstream out{*out_path};
  if (!out) return fail("cannot open " + *out_path);
  dns::LogWriter writer{out};
  for (const auto& entry : imported.entries) writer.write(entry);
  std::printf("parsed %zu entries (%zu matched, %zu orphan responses, %zu expired, "
              "%zu evicted, %zu malformed)\n",
              imported.entries.size(), imported.stats.matched,
              imported.stats.orphan_responses, imported.stats.expired_queries,
              imported.stats.evicted, imported.stats.malformed);
  if (imported.truncated) {
    std::fprintf(stderr,
                 "dnsembed: warning: capture truncated after %zu packets (%s); "
                 "entries up to the damage were kept\n",
                 imported.packets, imported.error.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- graphs

/// Shared: read a log file into the three bipartite graphs.
core::GraphBuilderSink read_log_graphs(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot open " + path};
  core::GraphBuilderSink graphs;
  dns::LogReader reader{in};
  while (const auto entry = reader.next()) graphs.on_dns(*entry);
  return graphs;
}

/// Apply the shared min-similarity flag to all three similarity
/// projections.
core::BehaviorModelConfig behavior_from_args(const util::ArgParser& args) {
  core::BehaviorModelConfig behavior;
  const double min_sim = args.get_double_or("--min-similarity", 0.1);
  for (auto* proj : {&behavior.query_projection, &behavior.ip_projection,
                     &behavior.temporal_projection}) {
    proj->min_similarity = min_sim;
  }
  return behavior;
}

int cmd_graphs(const util::ArgParser& args) {
  const auto log_path = args.get("--log");
  const auto prefix = args.get("--out-prefix");
  if (!log_path || !prefix) return fail("graphs: --log and --out-prefix are required");
  if (const int rc = check_input(*log_path)) return rc;

  auto graphs = read_log_graphs(*log_path);
  const auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                                graphs.take_dtbg(), behavior_from_args(args));

  const auto save_bipartite = [&](const char* name, const graph::BipartiteGraph& g) {
    const std::string path = *prefix + name + ".csv";
    std::ofstream out{path};
    graph::save_bipartite_csv(out, g);
    std::printf("wrote %-16s %8zu x %-8zu (%zu edges)\n", path.c_str(), g.left_count(),
                g.right_count(), g.edge_count());
  };
  const auto save_weighted = [&](const char* name, const util::CsrGraph& g) {
    const std::string path = *prefix + name + ".csv";
    std::ofstream out{path};
    graph::save_weighted_csv(out, g);
    std::printf("wrote %-16s %8zu vertices (%zu edges)\n", path.c_str(), g.vertex_count(),
                g.edge_count());
  };
  save_bipartite("hdbg", model.hdbg);
  save_bipartite("dibg", model.dibg);
  save_bipartite("dtbg", model.dtbg);
  save_weighted("query_sim", model.query_similarity);
  save_weighted("ip_sim", model.ip_similarity);
  save_weighted("temporal_sim", model.temporal_similarity);
  return 0;
}

// ---------------------------------------------------------------- embed

int cmd_embed(const util::ArgParser& args) {
  const auto log_path = args.get("--log");
  const auto out_path = args.get("--out");
  if (!log_path || !out_path) return fail("embed: --log and --out are required");
  if (const int rc = check_input(*log_path)) return rc;

  auto graphs = read_log_graphs(*log_path);

  auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                          graphs.take_dtbg(), behavior_from_args(args));
  std::printf("behavior model: %zu domains, %zu/%zu/%zu similarity edges\n",
              model.kept_domains.size(), model.query_similarity.edge_count(),
              model.ip_similarity.edge_count(), model.temporal_similarity.edge_count());

  embed::EmbedConfig config;
  const std::string method = args.get_or("--method", "line");
  if (method == "line") {
    config.method = embed::EmbedMethod::kLine;
  } else if (method == "deepwalk") {
    config.method = embed::EmbedMethod::kDeepWalk;
  } else if (method == "node2vec") {
    config.method = embed::EmbedMethod::kNode2Vec;
  } else {
    return fail("embed: unknown --method " + method);
  }
  config.dimension = static_cast<std::size_t>(args.get_int_or("--dim", 32));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 1));
  config.line.total_samples =
      static_cast<std::size_t>(args.get_int_or("--samples", 4'000'000));

  util::Stopwatch watch;
  const auto combined = core::embed_channels(model, config).combined;
  combined.save_file(*out_path);  // embedding arena: atomic, checksummed, bit-exact
  std::printf("wrote %zux%zu embeddings to %s (%.1fs)\n", combined.size(),
              combined.dimension(), out_path->c_str(), watch.seconds());
  return 0;
}

// --------------------------------------------------------------- labels

intel::LabeledSet read_labels(const std::string& path, const embed::EmbeddingMatrix& embedding) {
  // `simulate` writes labels as a checksummed "label-csv" artifact; plain
  // CSV files (hand-written or from other tools) still load unchanged.
  std::string text = util::fsio::read_file(path);
  if (text.rfind(util::kArtifactMagic, 0) == 0) {
    text = util::validate_artifact_bytes(text, "label-csv", path);
  }
  intel::LabeledSet labels;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto row = util::parse_csv_line(line);
    if (row.size() < 2 || row[0] == "domain") continue;
    if (!embedding.index_of(row[0])) continue;  // only domains we can score
    labels.domains.push_back(row[0]);
    labels.labels.push_back(row[1] == "1" ? 1 : 0);
  }
  return labels;
}

ml::SvmConfig svm_from_args(const util::ArgParser& args) {
  ml::SvmConfig svm;
  svm.c = args.get_double_or("--svm-c", 1.0);
  svm.gamma = args.get_double_or("--svm-gamma", 0.5);
  return svm;
}

/// Adversarial-scenario trace knobs shared by simulate/report/run/advsim.
/// All default to off; generate_trace validates the values.
void adversarial_from_args(const util::ArgParser& args, trace::TraceConfig& config) {
  config.zero_day_families =
      static_cast<std::size_t>(args.get_int_or("--zero-day", 0));
  config.zero_day_activation_day = static_cast<std::size_t>(
      args.get_int_or("--zero-day-activation", -1));  // -1 wraps to SIZE_MAX = mid-window
  config.zero_day_ip_reuse_fraction =
      args.get_double_or("--zero-day-ip-reuse", config.zero_day_ip_reuse_fraction);
  config.evasion_families = static_cast<std::size_t>(args.get_int_or("--evasion", 0));
  config.evasion_mimicry_rate =
      args.get_double_or("--mimicry-rate", config.evasion_mimicry_rate);
  config.evasion_cover_sites = static_cast<std::size_t>(
      args.get_int_or("--cover-sites", static_cast<long long>(config.evasion_cover_sites)));
  config.iot_host_fraction = args.get_double_or("--iot-fraction", 0.0);
}

// --------------------------------------------------------------- detect

int cmd_detect(const util::ArgParser& args) {
  const auto embeddings_path = args.get("--embeddings");
  const auto labels_path = args.get("--labels");
  if (!embeddings_path || !labels_path) {
    return fail("detect: --embeddings and --labels are required");
  }
  if (const int rc = check_input(*embeddings_path)) return rc;
  if (const int rc = check_input(*labels_path)) return rc;
  const auto embedding = embed::EmbeddingMatrix::load_file(*embeddings_path);
  const auto labels = read_labels(*labels_path, embedding);
  if (labels.size() < 20 || labels.malicious_count() == 0 ||
      labels.malicious_count() == labels.size()) {
    return fail("detect: need both classes among the embedded domains");
  }
  std::printf("%zu labeled domains (%zu malicious)\n", labels.size(),
              labels.malicious_count());

  const auto folds = static_cast<std::size_t>(args.get_int_or("--kfold", 10));
  const auto eval = core::evaluate_svm(core::make_dataset(embedding, labels),
                                       svm_from_args(args), folds, 1);
  std::printf("AUC = %.4f over %zu-fold cross-validation\n", eval.auc, folds);
  const auto& cm = eval.confusion_at_zero;
  std::printf("threshold 0: accuracy %.3f, precision %.3f, recall %.3f, FPR %.3f\n",
              cm.accuracy(), cm.precision(), cm.recall(), cm.fpr());
  if (const auto roc_path = args.get("--roc")) {
    std::ofstream roc_out{*roc_path};
    util::CsvWriter csv{roc_out};
    csv.write_row({"fpr", "tpr", "threshold"});
    for (const auto& point : eval.roc) {
      csv.write_row({std::to_string(point.fpr), std::to_string(point.tpr),
                     std::to_string(point.threshold)});
    }
    std::printf("ROC curve written to %s\n", roc_path->c_str());
  }
  return 0;
}

// ---------------------------------------------------------------- train

int cmd_train(const util::ArgParser& args) {
  const auto embeddings_path = args.get("--embeddings");
  const auto labels_path = args.get("--labels");
  const auto out_path = args.get("--out");
  if (!embeddings_path || !labels_path || !out_path) {
    return fail("train: --embeddings, --labels and --out are required");
  }
  if (const int rc = check_input(*embeddings_path)) return rc;
  if (const int rc = check_input(*labels_path)) return rc;
  const auto embedding = embed::EmbeddingMatrix::load_file(*embeddings_path);
  const auto labels = read_labels(*labels_path, embedding);
  const auto model = ml::train_svm(core::make_dataset(embedding, labels), svm_from_args(args));
  model.save_file(*out_path);
  std::printf("trained on %zu domains (%zu malicious); %zu support vectors; model "
              "written to %s\n",
              labels.size(), labels.malicious_count(), model.support_vector_count(),
              out_path->c_str());
  return 0;
}

// ---------------------------------------------------------------- score

int cmd_score(const util::ArgParser& args) {
  const auto embeddings_path = args.get("--embeddings");
  const auto domains_arg = args.get("--domains");
  if (!embeddings_path || !domains_arg) {
    return fail("score: --embeddings and --domains are required");
  }
  if (const int rc = check_input(*embeddings_path)) return rc;
  const auto embedding = embed::EmbeddingMatrix::load_file(*embeddings_path);

  // Scoring source: a pre-trained model file, or train-on-the-fly.
  ml::SvmModel loaded_model;
  core::DomainDetector* detector = nullptr;
  std::optional<core::DomainDetector> fresh;
  intel::LabeledSet labels;
  if (const auto model_path = args.get("--model")) {
    if (const int rc = check_input(*model_path)) return rc;
    loaded_model = ml::SvmModel::load_file(*model_path);
  } else if (const auto labels_path = args.get("--labels")) {
    if (const int rc = check_input(*labels_path)) return rc;
    labels = read_labels(*labels_path, embedding);
    fresh.emplace(embedding, labels, svm_from_args(args));
    detector = &*fresh;
  } else {
    return fail("score: pass --model or --labels");
  }

  for (const auto& domain : util::split(*domains_arg, ',')) {
    const auto vec = embedding.vector_for(domain);
    if (!vec) {
      std::printf("%9s  %s  %s\n", "-", "unknown  ", domain.c_str());
      continue;
    }
    double score = 0.0;
    if (detector != nullptr) {
      score = detector->score(domain);
    } else {
      const std::vector<double> x(vec->begin(), vec->end());
      score = loaded_model.decision_value(x);
    }
    std::printf("%+9.4f  %s  %s\n", score, score >= 0 ? "MALICIOUS" : "benign   ",
                domain.c_str());
  }
  return 0;
}

// -------------------------------------------------------------- cluster

int cmd_cluster(const util::ArgParser& args) {
  const auto embeddings_path = args.get("--embeddings");
  const auto out_path = args.get("--out");
  if (!embeddings_path || !out_path) return fail("cluster: --embeddings and --out required");
  if (const int rc = check_input(*embeddings_path)) return rc;
  const auto embedding = embed::EmbeddingMatrix::load_file(*embeddings_path);

  ml::Matrix x{embedding.size(), embedding.dimension()};
  for (std::size_t i = 0; i < embedding.size(); ++i) {
    const auto row = embedding.row(i);
    auto dst = x.row(i);
    for (std::size_t d = 0; d < row.size(); ++d) dst[d] = row[d];
  }
  ml::XMeansConfig config;
  config.k_min = static_cast<std::size_t>(args.get_int_or("--kmin", 8));
  config.k_max = static_cast<std::size_t>(args.get_int_or("--kmax", 96));
  config.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 1));
  const auto result = ml::xmeans(x, config);

  std::ofstream out{*out_path};
  if (!out) return fail("cannot open " + *out_path);
  util::CsvWriter csv{out};
  csv.write_row({"domain", "cluster"});
  for (std::size_t i = 0; i < embedding.size(); ++i) {
    csv.write_row({embedding.names()[i], std::to_string(result.assignment[i])});
  }
  std::printf("X-Means chose k = %zu; assignments written to %s\n", result.k,
              out_path->c_str());
  return 0;
}

// -------------------------------------------------------------- faultsim

/// One sweep point of the fault-injection harness.
struct FaultSweepPoint {
  double severity = 0.0;
  std::string plan;
  fault::FaultStats faults;
  dns::CaptureImportResult import;
  std::size_t packets_exported = 0;
  std::size_t entries_final = 0;
  std::size_t kept_domains = 0;
  std::size_t labeled = 0;
  bool auc_valid = false;
  double auc = 0.0;
  std::size_t alerts = 0;
  std::size_t alerts_malicious = 0;
  std::size_t retrained_days = 0;
  std::vector<core::StreamingDayRecord> days;
  // Artifact save/load round trips under the plan's io channel.
  std::size_t io_trials = 0;
  std::size_t io_save_failures = 0;
  std::size_t io_corrupt_detected = 0;
  std::size_t io_roundtrips_ok = 0;
  fault::IoFaultStats io_faults;
  // Supervised mini-pipeline under the plan's process channels.
  bool supervisor_ran = false;
  core::SupervisionStats supervision;
  std::size_t supervisor_workers = 0;
  bool supervisor_report_ok = false;
  bool supervisor_status_ok = false;  // live --status-out file written + non-empty
};

void write_faultsim_json(std::ostream& out, const trace::TraceConfig& trace,
                         const std::vector<FaultSweepPoint>& sweep) {
  const auto boolean = [](bool b) { return b ? "true" : "false"; };
  out << "{\n  \"trace\": {\"hosts\": " << trace.hosts << ", \"days\": " << trace.days
      << ", \"benign_sites\": " << trace.benign_sites
      << ", \"malware_families\": " << trace.malware_families
      << ", \"seed\": " << trace.seed << "},\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& p = sweep[i];
    out << "    {\"severity\": " << p.severity << ", \"plan\": \"" << p.plan << "\",\n"
        << "     \"packets_exported\": " << p.packets_exported
        << ", \"packets_after_faults\": " << p.faults.packets_out
        << ", \"dropped\": " << p.faults.dropped
        << ", \"duplicated\": " << p.faults.duplicated
        << ", \"truncated\": " << p.faults.truncated
        << ", \"corrupted\": " << p.faults.corrupted
        << ", \"skewed\": " << p.faults.skewed
        << ", \"reordered\": " << p.faults.reordered
        << ", \"capture_cut\": " << p.faults.capture_cut << ",\n"
        << "     \"import\": {\"packets\": " << p.import.packets
        << ", \"undecoded_frames\": " << p.import.undecoded_frames
        << ", \"matched\": " << p.import.stats.matched
        << ", \"orphan_responses\": " << p.import.stats.orphan_responses
        << ", \"expired\": " << p.import.stats.expired_queries
        << ", \"evicted\": " << p.import.stats.evicted
        << ", \"duplicate_queries\": " << p.import.stats.duplicate_queries
        << ", \"malformed\": " << p.import.stats.malformed
        << ", \"capture_truncated\": " << boolean(p.import.truncated) << "},\n"
        << "     \"entries\": " << p.entries_final
        << ", \"churned\": " << p.faults.entries_churned
        << ", \"kept_domains\": " << p.kept_domains
        << ", \"labeled\": " << p.labeled << ", \"auc\": ";
    if (p.auc_valid) {
      out << p.auc;
    } else {
      out << "null";
    }
    out << ",\n     \"alerts\": " << p.alerts
        << ", \"alerts_malicious\": " << p.alerts_malicious << ", \"alert_precision\": ";
    if (p.alerts > 0) {
      out << static_cast<double>(p.alerts_malicious) / static_cast<double>(p.alerts);
    } else {
      out << "null";
    }
    out << ", \"retrained_days\": " << p.retrained_days << ",\n     \"io\": {\"trials\": "
        << p.io_trials << ", \"save_failures\": " << p.io_save_failures
        << ", \"corrupt_detected\": " << p.io_corrupt_detected
        << ", \"roundtrips_ok\": " << p.io_roundtrips_ok
        << ", \"errors_injected\": " << p.io_faults.errors_injected
        << ", \"torn_writes\": " << p.io_faults.torn_writes
        << ", \"bitflips\": " << p.io_faults.bitflips << "},\n     \"supervisor\": ";
    if (p.supervisor_ran) {
      out << "{\"workers\": " << p.supervisor_workers
          << ", \"tasks_run\": " << p.supervision.tasks_run
          << ", \"restarts\": " << p.supervision.restarts
          << ", \"crashes\": " << p.supervision.crashes
          << ", \"hangs_killed\": " << p.supervision.hangs_killed
          << ", \"corrupt_outputs\": " << p.supervision.corrupt_outputs
          << ", \"quarantined\": " << p.supervision.quarantined.size()
          << ", \"report_ok\": " << boolean(p.supervisor_report_ok)
          << ", \"status_ok\": " << boolean(p.supervisor_status_ok) << "}";
    } else {
      out << "null";
    }
    out << ",\n     \"days\": [";
    for (std::size_t d = 0; d < p.days.size(); ++d) {
      const auto& r = p.days[d];
      out << (d == 0 ? "\n" : ",\n")
          << "       {\"day\": " << r.day << ", \"entries\": " << r.entries
          << ", \"window_entries\": " << r.window_entries
          << ", \"kept_domains\": " << r.kept_domains << ", \"labeled\": " << r.labeled
          << ", \"scored\": " << r.scored << ", \"alerts\": " << r.alerts
          << ", \"retrained\": " << boolean(r.retrained) << ", \"skip_reason\": \""
          << r.skip_reason << "\"}";
    }
    out << (p.days.empty() ? "]}" : "\n     ]}");
    out << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int cmd_faultsim(const util::ArgParser& args) {
  const auto out_path = args.get("--out");
  if (!out_path) return fail("faultsim: --out is required");

  trace::TraceConfig trace_config;
  trace_config.hosts = static_cast<std::size_t>(args.get_int_or("--hosts", 60));
  trace_config.days = static_cast<std::size_t>(args.get_int_or("--days", 3));
  trace_config.benign_sites = static_cast<std::size_t>(args.get_int_or("--sites", 300));
  trace_config.malware_families =
      static_cast<std::size_t>(args.get_int_or("--families", 6));
  trace_config.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 42));
  // Keep victim cohorts feasible for small host populations.
  trace_config.max_victims = std::min(trace_config.max_victims, trace_config.hosts / 2);
  trace_config.min_victims = std::min(trace_config.min_victims, trace_config.max_victims);

  const auto samples = static_cast<std::size_t>(args.get_int_or("--samples", 300'000));
  const auto window_days = static_cast<std::size_t>(args.get_int_or("--window", 2));
  const auto label_delay = static_cast<std::size_t>(args.get_int_or("--label-delay", 2));
  const auto kfold = static_cast<std::size_t>(args.get_int_or("--kfold", 3));
  const bool streaming = !args.has("--no-streaming") && args.get_or("--streaming", "1") != "0";

  std::vector<double> severities;
  for (const auto& token : util::split(args.get_or("--severities", "0,0.25,0.5,1"), ',')) {
    severities.push_back(std::stod(token));
  }

  // The campus trace under test (entries + DHCP history + ground truth).
  util::Stopwatch watch;
  trace::CollectingSink sink;
  const auto trace_result = trace::generate_trace(trace_config, sink);
  const intel::VirusTotalSim vt{trace_result.truth, intel::VirusTotalConfig{}};
  std::printf("trace: %zu entries, %zu benign / %zu malicious domains (%.1fs)\n",
              sink.dns().size(), trace_result.truth.benign_count(),
              trace_result.truth.malicious_count(), watch.seconds());

  // Severity 1 of every channel; scaled() interpolates the sweep.
  fault::FaultPlan base;
  base.seed = trace_config.seed + 17;
  base.drop_rate = 0.15;
  base.duplicate_rate = 0.15;
  base.truncate_rate = 0.08;
  base.corrupt_rate = 0.08;
  base.timestamp_skew_rate = 0.15;
  base.reorder_rate = 0.15;
  base.capture_cut_rate = 0.25;
  base.dhcp_churn_rate = 0.15;
  base.label_blackhole_rate = 0.3;
  base.label_extra_delay_max = 3;
  base.io_error_rate = 0.3;
  base.io_torn_write_rate = 0.15;
  base.io_bitflip_rate = 0.15;
  // Process channels: at most one injected fault per task, so with the
  // default retry budget every worker failure recovers (quarantine is the
  // dedicated tests' territory; the sweep measures restart cost).
  base.proc_crash_rate = 0.35;
  base.proc_hang_rate = 0.2;
  base.proc_garbage_rate = 0.35;
  base.proc_max_faults_per_task = 1;

  std::vector<FaultSweepPoint> sweep;
  for (const double severity : severities) {
    FaultSweepPoint point;
    point.severity = severity;
    auto plan = base.scaled(severity);
    plan.label_extra_delay_max =
        static_cast<std::size_t>(static_cast<double>(base.label_extra_delay_max) * severity);
    point.plan = plan.describe();

    // entries -> pcap -> packet faults -> capture cut -> import.
    std::stringstream exported;
    point.packets_exported = dns::export_pcap(exported, sink.dns(), trace_result.dhcp);
    std::vector<dns::PcapPacket> packets;
    {
      dns::PcapReader reader{exported};
      while (auto packet = reader.next()) packets.push_back(*std::move(packet));
    }
    const auto faulted = fault::apply_packet_faults(packets, plan, &point.faults);
    std::stringstream rewritten;
    {
      dns::PcapWriter writer{rewritten};
      for (const auto& packet : faulted) writer.write(packet);
    }
    std::stringstream damaged{
        fault::apply_capture_cut(std::move(rewritten).str(), plan, &point.faults)};
    point.import = dns::import_pcap(damaged, &trace_result.dhcp);

    // Entry-level channels (DHCP churn) on the surviving entries.
    auto entries =
        fault::apply_entry_faults(std::move(point.import.entries), plan, &point.faults);
    point.import.entries.clear();
    point.entries_final = entries.size();

    // Offline detection quality: behavior model -> embeddings -> k-fold AUC.
    core::GraphBuilderSink graphs;
    for (const auto& entry : entries) graphs.on_dns(entry);
    core::BehaviorModelConfig behavior;
    behavior.query_projection.min_similarity = 0.1;
    behavior.ip_projection.min_similarity = 0.1;
    behavior.temporal_projection.min_similarity = 0.1;
    auto model = core::build_behavior_model(graphs.take_hdbg(), graphs.take_dibg(),
                                            graphs.take_dtbg(), behavior);
    point.kept_domains = model.kept_domains.size();
    if (model.kept_domains.size() >= 20) {
      embed::EmbedConfig ec;
      ec.dimension = 16;
      ec.seed = trace_config.seed + 1;
      ec.line.total_samples = samples;
      const auto combined = core::embed_channels(model, ec).combined;
      const auto labels = intel::build_labeled_set(model.kept_domains, trace_result.truth,
                                                   vt, intel::LabelingConfig{});
      point.labeled = labels.size();
      if (labels.malicious_count() >= 2 && labels.malicious_count() < labels.size()) {
        const auto eval = core::evaluate_svm(core::make_dataset(combined, labels),
                                             svm_from_args(args), kfold, 1);
        point.auc_valid = true;
        point.auc = eval.auc;
      }
    }

    // Streaming detection under the same plan's lagging threat feed.
    if (streaming) {
      std::vector<std::vector<dns::LogEntry>> by_day(trace_config.days);
      for (auto& entry : entries) {
        auto day = static_cast<std::size_t>(std::max<std::int64_t>(entry.timestamp, 0) / 86400);
        if (day >= by_day.size()) day = by_day.size() - 1;
        by_day[day].push_back(std::move(entry));
      }
      core::StreamingConfig sc;
      sc.window_days = window_days;
      sc.label_delay_days = label_delay;
      sc.embedding.line.total_samples = samples;
      sc.label_feed = fault::make_faulty_label_feed(vt, label_delay, plan);
      core::StreamingDetector detector{sc, trace_result.truth, vt};
      for (const auto& day : by_day) detector.advance_day(day);
      point.alerts = detector.alerts().size();
      for (const auto& alert : detector.alerts()) {
        if (trace_result.truth.is_malicious(alert.domain)) ++point.alerts_malicious;
      }
      for (const auto& record : detector.day_records()) {
        if (record.retrained) ++point.retrained_days;
      }
      point.days = detector.day_records();
    }

    // Artifact durability under the same plan's io channel: save/load round
    // trips through fsio with injected EIO, torn writes, and bit flips. A
    // failure must surface as IoError or CorruptArtifact — a round trip that
    // "succeeds" must return the exact payload written.
    {
      fault::IoFaultChannel channel{plan};
      fault::ScopedIoFaults io_guard{&channel};
      const std::string trial_path = *out_path + ".io-trial";
      for (std::size_t trial = 0; trial < 24; ++trial) {
        ++point.io_trials;
        std::string payload = "io-trial " + std::to_string(trial) + " severity " +
                              std::to_string(severity) + "\n";
        payload.append((trial * 977) % 4096, static_cast<char>('a' + trial % 26));
        try {
          util::save_artifact(trial_path, "io-trial", payload);
        } catch (const util::fsio::IoError&) {
          ++point.io_save_failures;
          continue;
        }
        try {
          if (util::load_artifact(trial_path, "io-trial") == payload) {
            ++point.io_roundtrips_ok;
          }
        } catch (const util::CorruptArtifact&) {
          ++point.io_corrupt_detected;
        } catch (const util::fsio::IoError&) {
          ++point.io_save_failures;
        }
      }
      point.io_faults = channel.stats();
      std::remove(trial_path.c_str());
    }

    // Process-fault resilience: a tiny supervised pipeline run under the
    // plan's proc channels. With the per-task fault cap every failure must
    // recover within the retry budget: report present, nothing quarantined.
    {
      core::RunOptions run_options;
      run_options.workdir = *out_path + ".supervised";
      run_options.supervise.workers = 2;
      run_options.supervise.max_retries = 2;
      run_options.supervise.heartbeat_interval_seconds = 0.05;
      run_options.supervise.heartbeat_timeout_seconds = 0.6;
      run_options.supervise.process_faults = plan;
      run_options.supervise.status_path = *out_path + ".supervised.status.json";
      auto& run_config = run_options.config;
      run_config.trace.hosts = 24;
      run_config.trace.days = 2;
      run_config.trace.benign_sites = 100;
      run_config.trace.malware_families = 3;
      // 24 hosts cannot satisfy the default victim cohort (max 40): clamp,
      // or generate_trace rejects the config and the supervised probe never
      // runs.
      run_config.trace.min_victims = 3;
      run_config.trace.max_victims = 8;
      run_config.trace.seed = trace_config.seed;
      run_config.embedding_dimension = 8;
      run_config.embedding.line.total_samples = 20'000;
      run_config.kfold = 3;
      point.supervisor_workers = run_options.supervise.workers;
      try {
        const auto run_summary = core::run_resumable(run_options);
        point.supervisor_ran = true;
        point.supervision = run_summary.supervision;
        point.supervisor_report_ok =
            run_summary.quarantined.empty() && util::fsio::file_exists(run_summary.report_path);
        // The live status file must survive the run with task rows in it.
        try {
          const auto status = util::fsio::read_file(run_options.supervise.status_path);
          point.supervisor_status_ok = status.find("\"tasks\"") != std::string::npos;
        } catch (const util::fsio::IoError&) {
        }
      } catch (const std::exception& e) {
        util::log_warn() << "faultsim: supervised run failed at severity " << severity
                         << ": " << e.what();
      }
    }

    std::printf("severity %.3g: %zu->%zu packets, %zu entries, auc %s, %zu alerts "
                "(%zu malicious) [%s] (%.1fs)\n",
                severity, point.packets_exported, point.faults.packets_out,
                point.entries_final,
                point.auc_valid ? std::to_string(point.auc).c_str() : "n/a", point.alerts,
                point.alerts_malicious, point.plan.c_str(), watch.seconds());
    sweep.push_back(std::move(point));
  }

  std::ofstream out{*out_path};
  if (!out) return fail("cannot open " + *out_path);
  write_faultsim_json(out, trace_config, sweep);
  std::printf("degradation report written to %s (%.1fs)\n", out_path->c_str(),
              watch.seconds());
  return 0;
}

// ---------------------------------------------------------------- advsim

/// One point of the adversarial sweep: a full (small) pipeline run at a
/// given mimicry rate, plus the clean baseline.
struct AdvSweepPoint {
  double mimicry = 0.0;
  bool adversarial = false;  // false = clean baseline (no adversarial families)
  std::size_t entries = 0;
  std::size_t kept_domains = 0;
  std::size_t labeled = 0;
  bool auc_valid = false;
  double auc = 0.0;  // combined-channel cross-validated AUC
  core::ScenarioEvaluation scenarios;
};

void write_advsim_json(std::ostream& out, const trace::TraceConfig& trace,
                       const std::vector<AdvSweepPoint>& sweep) {
  const auto boolean = [](bool b) { return b ? "true" : "false"; };
  const auto point_json = [&](const AdvSweepPoint& p, const char* indent) {
    out << "{\"mimicry\": " << p.mimicry << ", \"adversarial\": " << boolean(p.adversarial)
        << ", \"entries\": " << p.entries << ", \"kept_domains\": " << p.kept_domains
        << ", \"labeled\": " << p.labeled << ", \"auc\": ";
    if (p.auc_valid) {
      out << p.auc;
    } else {
      out << "null";
    }
    out << ",\n" << indent << " \"scenarios\": [";
    for (std::size_t s = 0; s < p.scenarios.scenarios.size(); ++s) {
      const auto& m = p.scenarios.scenarios[s];
      out << (s == 0 ? "\n" : ",\n") << indent << "   {\"scenario\": \"" << m.scenario
          << "\", \"labeled\": " << m.labeled << ", \"detected\": " << m.detected
          << ", \"recall\": " << m.recall << ", \"precision\": " << m.precision
          << ", \"auc\": ";
      if (m.auc_valid) {
        out << m.auc;
      } else {
        out << "null";
      }
      out << ", \"expansion_reached\": " << m.expansion_reached
          << ", \"expansion_candidates\": " << m.expansion_candidates << "}";
    }
    out << (p.scenarios.scenarios.empty() ? "]" : std::string{"\n"} + indent + " ]");
    out << ", \"benign_labeled\": " << p.scenarios.benign_labeled
        << ", \"benign_false_positives\": " << p.scenarios.benign_false_positives << "}";
  };

  out << "{\n  \"trace\": {\"hosts\": " << trace.hosts << ", \"days\": " << trace.days
      << ", \"benign_sites\": " << trace.benign_sites
      << ", \"malware_families\": " << trace.malware_families
      << ", \"zero_day_families\": " << trace.zero_day_families
      << ", \"evasion_families\": " << trace.evasion_families
      << ", \"iot_host_fraction\": " << trace.iot_host_fraction
      << ", \"seed\": " << trace.seed << "},\n";
  out << "  \"clean\": ";
  bool wrote_clean = false;
  for (const auto& p : sweep) {
    if (!p.adversarial) {
      point_json(p, "  ");
      wrote_clean = true;
      break;
    }
  }
  if (!wrote_clean) out << "null";
  out << ",\n  \"sweep\": [";
  bool first = true;
  for (const auto& p : sweep) {
    if (!p.adversarial) continue;
    out << (first ? "\n    " : ",\n    ");
    point_json(p, "    ");
    first = false;
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
}

int cmd_advsim(const util::ArgParser& args) {
  const auto out_path = args.get("--out");
  if (!out_path) return fail("advsim: --out is required");

  trace::TraceConfig trace_config;
  trace_config.hosts = static_cast<std::size_t>(args.get_int_or("--hosts", 60));
  trace_config.days = static_cast<std::size_t>(args.get_int_or("--days", 4));
  trace_config.benign_sites = static_cast<std::size_t>(args.get_int_or("--sites", 300));
  trace_config.malware_families =
      static_cast<std::size_t>(args.get_int_or("--families", 6));
  trace_config.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 42));
  // Keep victim cohorts feasible for small host populations.
  trace_config.max_victims = std::min(trace_config.max_victims, trace_config.hosts / 2);
  trace_config.min_victims = std::min(trace_config.min_victims, trace_config.max_victims);
  adversarial_from_args(args, trace_config);
  // The sweep is about adversarial campaigns: default them on.
  if (!args.has("--zero-day")) trace_config.zero_day_families = 2;
  if (!args.has("--evasion")) trace_config.evasion_families = 2;
  if (!args.has("--iot-fraction")) trace_config.iot_host_fraction = 0.15;

  std::vector<double> rates;
  for (const auto& token : util::split(args.get_or("--mimicry", "0,0.25,0.5,1"), ',')) {
    rates.push_back(std::stod(token));
  }

  const auto samples = static_cast<std::size_t>(args.get_int_or("--samples", 300'000));
  const auto kfold = static_cast<std::size_t>(args.get_int_or("--kfold", 3));
  const auto dim = static_cast<std::size_t>(args.get_int_or("--dim", 16));

  util::Stopwatch watch;
  const auto run_point = [&](const trace::TraceConfig& trace, double mimicry,
                             bool adversarial) {
    core::PipelineConfig config;
    config.trace = trace;
    config.embedding_dimension = dim;
    config.embedding.line.total_samples = samples;
    config.svm = svm_from_args(args);
    config.kfold = kfold;
    config.xmeans.k_min = 4;
    config.xmeans.k_max = 32;

    AdvSweepPoint point;
    point.mimicry = mimicry;
    point.adversarial = adversarial;
    const auto result = core::run_pipeline(config);
    point.entries = result.trace.dns_events;
    point.kept_domains = result.model.kept_domains.size();
    point.labeled = result.labels.size();
    if (result.labels.malicious_count() >= 2 &&
        result.labels.malicious_count() < result.labels.size()) {
      const auto eval = core::evaluate_svm(
          core::make_dataset(result.combined_embedding, result.labels), config.svm,
          config.kfold, config.seed);
      point.auc_valid = true;
      point.auc = eval.auc;
      point.scenarios = core::evaluate_scenarios(result.labels, eval.scores.scores,
                                                 result.trace.truth);
      const auto clusters =
          core::cluster_domains(result.combined_embedding, result.model.kept_domains,
                                result.trace.truth, config.xmeans);
      core::annotate_seed_expansion(point.scenarios, clusters, result.trace.truth);
    }
    std::printf("%s mimicry %.3g: %zu kept, %zu labeled, auc %s (%.1fs)\n",
                adversarial ? "adversarial" : "clean      ", mimicry, point.kept_domains,
                point.labeled,
                point.auc_valid ? std::to_string(point.auc).c_str() : "n/a",
                watch.seconds());
    return point;
  };

  std::vector<AdvSweepPoint> sweep;
  // Clean baseline: the same campus without any adversarial campaigns.
  {
    trace::TraceConfig clean = trace_config;
    clean.zero_day_families = 0;
    clean.evasion_families = 0;
    clean.iot_host_fraction = 0.0;
    sweep.push_back(run_point(clean, 0.0, false));
  }
  for (const double rate : rates) {
    trace::TraceConfig adversarial = trace_config;
    adversarial.evasion_mimicry_rate = rate;
    sweep.push_back(run_point(adversarial, rate, true));
  }

  std::ofstream out{*out_path};
  if (!out) return fail("cannot open " + *out_path);
  write_advsim_json(out, trace_config, sweep);
  std::printf("adversarial sweep written to %s (%.1fs)\n", out_path->c_str(),
              watch.seconds());
  return 0;
}

// ---------------------------------------------------------------- report

int cmd_report(const util::ArgParser& args) {
  const auto out_path = args.get("--out");
  if (!out_path) return fail("report: --out is required");
  const bool streaming = !args.has("--no-streaming");
  core::PipelineConfig config;
  config.trace.hosts = static_cast<std::size_t>(args.get_int_or("--hosts", 200));
  config.trace.days = static_cast<std::size_t>(args.get_int_or("--days", 4));
  config.trace.benign_sites = static_cast<std::size_t>(args.get_int_or("--sites", 1000));
  config.trace.malware_families =
      static_cast<std::size_t>(args.get_int_or("--families", 8));
  config.trace.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 42));
  adversarial_from_args(args, config.trace);
  config.embedding_dimension = 24;
  config.embedding.line.total_samples =
      static_cast<std::size_t>(args.get_int_or("--samples", 2'000'000));
  config.svm = svm_from_args(args);
  config.kfold = 5;
  config.xmeans.k_min = 8;
  config.xmeans.k_max = 64;
  config.keep_entries = streaming;  // the streaming replay needs the raw log

  const auto result = core::run_pipeline(config);
  const auto evals = core::evaluate_channels(result, config);
  const auto clusters = core::cluster_domains(result.combined_embedding,
                                              result.model.kept_domains,
                                              result.trace.truth, config.xmeans);
  std::ofstream out{*out_path};
  if (!out) return fail("cannot open " + *out_path);
  core::write_detection_report(out, result, evals, clusters);

  if (streaming) {
    // Replay the same trace through the sliding-window detector, one
    // simulated day at a time; each day appends a "streaming.day" record
    // to the metrics registry and a row to the report.
    obs::StageSpan span{"pipeline.streaming"};
    std::vector<std::vector<dns::LogEntry>> by_day(std::max<std::size_t>(config.trace.days, 1));
    for (const auto& entry : result.entries) {
      auto day = static_cast<std::size_t>(std::max<std::int64_t>(entry.timestamp, 0) / 86400);
      if (day >= by_day.size()) day = by_day.size() - 1;
      by_day[day].push_back(entry);
    }
    core::StreamingConfig sc;
    sc.embedding.line.total_samples = config.embedding.line.total_samples;
    sc.seed = config.trace.seed;
    const intel::VirusTotalSim vt{result.trace.truth, config.virustotal};
    core::StreamingDetector detector{sc, result.trace.truth, vt};
    for (const auto& day : by_day) detector.advance_day(day);

    std::size_t alerts_malicious = 0;
    for (const auto& alert : detector.alerts()) {
      if (result.trace.truth.is_malicious(alert.domain)) ++alerts_malicious;
    }
    out << "\n## Streaming detection\n\n"
        << "Sliding-window replay: window " << sc.window_days << " days, label delay "
        << sc.label_delay_days << " days, alert FPR budget " << sc.alert_fpr << ".\n\n"
        << "| day | entries | window | kept | labeled | scored | alerts | status |\n"
        << "|----:|--------:|-------:|-----:|--------:|-------:|-------:|--------|\n";
    for (const auto& r : detector.day_records()) {
      out << "| " << r.day << " | " << r.entries << " | " << r.window_entries << " | "
          << r.kept_domains << " | " << r.labeled << " | " << r.scored << " | " << r.alerts
          << " | " << (r.retrained ? "retrained" : r.skip_reason) << " |\n";
    }
    out << "\n" << detector.alerts().size() << " alerts total, " << alerts_malicious
        << " on truly malicious domains.\n";
    std::printf("streaming replay: %zu days, %zu alerts (%zu malicious)\n",
                detector.day_records().size(), detector.alerts().size(), alerts_malicious);
  }

  std::printf("report written to %s (combined AUC %.4f, %zu clusters)\n",
              out_path->c_str(), evals.combined.auc, clusters.k);
  return 0;
}

// ------------------------------------------------------------------- run

int cmd_run(const util::ArgParser& args) {
  const auto workdir = args.get("--workdir");
  if (!workdir) return fail("run: --workdir is required");

  core::RunOptions options;
  options.workdir = *workdir;
  options.resume = args.has("--resume");
  options.stage_deadline_seconds = args.get_double_or("--stage-deadline", 0.0);
  if (const auto crash = args.get("--crash-after")) options.crash_after_artifact = *crash;
  if (const auto expire = args.get("--expire-deadline-after")) {
    options.expire_deadline_after_artifact = *expire;
  }

  // Supervision: --workers 0 (default) runs every stage task in this process.
  options.supervise.workers = static_cast<std::size_t>(args.get_int_or("--workers", 0));
  options.supervise.max_retries =
      static_cast<std::size_t>(args.get_int_or("--max-retries", 2));
  options.supervise.heartbeat_interval_seconds =
      args.get_double_or("--heartbeat-interval", 0.25);
  options.supervise.heartbeat_timeout_seconds =
      args.get_double_or("--heartbeat-timeout", 0.0);
  options.supervise.status_path = args.get_or("--status-out", "");
  // Seeded worker fault injection (tests, bench, faultsim parity).
  auto& faults = options.supervise.process_faults;
  faults.proc_crash_rate = args.get_double_or("--fault-crash", 0.0);
  faults.proc_hang_rate = args.get_double_or("--fault-hang", 0.0);
  faults.proc_garbage_rate = args.get_double_or("--fault-garbage", 0.0);
  faults.proc_max_faults_per_task =
      static_cast<std::size_t>(args.get_int_or("--fault-max-per-task", 1));
  faults.proc_target = args.get_or("--fault-target", "");
  faults.seed = static_cast<std::uint64_t>(args.get_int_or("--fault-seed", 1337));

  auto& config = options.config;
  config.trace.hosts = static_cast<std::size_t>(args.get_int_or("--hosts", 200));
  config.trace.days = static_cast<std::size_t>(args.get_int_or("--days", 4));
  config.trace.benign_sites = static_cast<std::size_t>(args.get_int_or("--sites", 1000));
  config.trace.malware_families =
      static_cast<std::size_t>(args.get_int_or("--families", 8));
  config.trace.seed = static_cast<std::uint64_t>(args.get_int_or("--seed", 42));
  adversarial_from_args(args, config.trace);
  config.embedding_dimension = static_cast<std::size_t>(args.get_int_or("--dim", 24));
  config.embedding.line.total_samples =
      static_cast<std::size_t>(args.get_int_or("--samples", 2'000'000));
  config.svm = svm_from_args(args);
  config.kfold = static_cast<std::size_t>(args.get_int_or("--kfold", 5));
  config.xmeans.k_min = 8;
  config.xmeans.k_max = 64;

  try {
    util::Stopwatch watch;
    const auto summary = core::run_resumable(options);
    for (const auto& stage : summary.stages) {
      std::printf("stage %-10s %s (%.1fs)\n", stage.name.c_str(),
                  stage.resumed ? "resumed " : "computed", stage.seconds);
    }
    if (options.supervise.workers > 0) {
      const auto& sv = summary.supervision;
      std::printf("supervisor: %zu tasks run, %zu restarts "
                  "(%zu crashes, %zu hangs killed, %zu corrupt outputs)\n",
                  sv.tasks_run, sv.restarts, sv.crashes, sv.hangs_killed, sv.corrupt_outputs);
      core::write_worker_resources(std::cout, sv);
    }
    std::printf("report written to %s (%zu/%zu stages resumed, %.1fs)\n",
                summary.report_path.c_str(), summary.resumed_stages, summary.stages.size(),
                watch.seconds());
    if (!summary.quarantined.empty()) {
      std::fprintf(stderr, "dnsembed: %zu task(s) quarantined; report is partial:\n",
                   summary.quarantined.size());
      for (const auto& task : summary.quarantined) {
        std::fprintf(stderr, "dnsembed:   %s\n", task.c_str());
      }
      return kExitQuarantine;
    }
    return 0;
  } catch (const core::StageDeadlineExceeded& e) {
    std::fprintf(stderr, "dnsembed: %s (committed artifacts remain valid; rerun with "
                         "--resume to continue)\n",
                 e.what());
    return kExitDeadline;
  } catch (const util::fsio::IoError& e) {
    // Workdir-creation and manifest-open failures carry filename + errno;
    // report them like any other unreadable input (exit 3) instead of a
    // generic runtime failure.
    std::fprintf(stderr, "dnsembed: run: %s\n", e.what());
    return kExitInputError;
  }
}

// ------------------------------------------------------------- serve

/// Long-running scoring daemon: artifacts -> lock-free score index; one
/// domain per stdin line, verdicts on stdout, !reload swaps artifacts
/// in place without dropping a request.
int cmd_serve(const util::ArgParser& args) {
  const auto embeddings = args.get("--embeddings");
  const auto model = args.get("--model");
  if (!embeddings || !model) {
    std::fprintf(stderr, "dnsembed serve: --embeddings and --model are required\n");
    return usage();
  }
  if (const int rc = check_input(*embeddings); rc != 0) return rc;
  if (const int rc = check_input(*model); rc != 0) return rc;

  serve::ServeOptions options;
  options.index_limit = static_cast<std::size_t>(args.get_int_or("--index-limit", 0));
  options.threads = static_cast<std::size_t>(args.get_int_or("--threads", 1));
  serve::ServeEngine engine{*embeddings, *model, options};

  serve::ServerOptions server;
  server.status_path = args.get_or("--status-out", "");
  server.status_every = static_cast<std::uint64_t>(args.get_int_or("--status-every", 1024));

  {
    const auto s = engine.stats();
    std::fprintf(stderr,
                 "dnsembed serve: snapshot v%llu, %llu domains indexed (%.1f MiB), "
                 "%llu embedding rows; reading stdin\n",
                 static_cast<unsigned long long>(s.snapshot_version),
                 static_cast<unsigned long long>(s.index_entries),
                 static_cast<double>(s.index_bytes) / (1024.0 * 1024.0),
                 static_cast<unsigned long long>(s.embedding_rows));
  }
  // Unsynced streams read stdin through a buffered filebuf, whose in_avail()
  // sees what waits in the pipe; the server flushes replies only when that
  // input is drained. Untying cin keeps reads from flushing every line.
  std::ios::sync_with_stdio(false);
  std::cin.tie(nullptr);
  serve::run_line_server(engine, std::cin, std::cout, server);
  const auto s = engine.stats();
  std::fprintf(stderr,
               "dnsembed serve: %llu lookups (%llu index, %llu batched, %llu unknown), "
               "%llu reloads\n",
               static_cast<unsigned long long>(s.lookups),
               static_cast<unsigned long long>(s.index_hits),
               static_cast<unsigned long long>(s.batch_scored),
               static_cast<unsigned long long>(s.unknown),
               static_cast<unsigned long long>(s.reloads));
  return 0;
}

int dispatch(const util::ArgParser& args, const std::string& command) {
  if (command == "simulate") return cmd_simulate(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "graphs") return cmd_graphs(args);
  if (command == "embed") return cmd_embed(args);
  if (command == "detect") return cmd_detect(args);
  if (command == "train") return cmd_train(args);
  if (command == "score") return cmd_score(args);
  if (command == "cluster") return cmd_cluster(args);
  if (command == "report") return cmd_report(args);
  if (command == "run") return cmd_run(args);
  if (command == "faultsim") return cmd_faultsim(args);
  if (command == "advsim") return cmd_advsim(args);
  if (command == "serve") return cmd_serve(args);
  std::fprintf(stderr, "dnsembed: unknown command '%s'\n", command.c_str());
  return usage();
}

/// Apply the global --log-level / --metrics-out / --trace-out options.
/// Returns nonzero (after printing the problem) on a bad value.
int apply_global_options(const util::ArgParser& args) {
  if (const auto arg = args.get("--log-level")) {
    const auto level = util::parse_log_level(*arg);
    if (!level) return fail("unknown --log-level '" + *arg + "' (debug|info|warn|error)");
    util::set_log_level(*level);
  } else if (const char* env = std::getenv("DNSEMBED_LOG")) {
    const auto level = util::parse_log_level(env);
    if (!level) return fail(std::string{"unknown DNSEMBED_LOG level '"} + env + "'");
    util::set_log_level(*level);
  }
  const std::string format = args.get_or("--metrics-format", "json");
  if (format != "json" && format != "prom") {
    return fail("unknown --metrics-format '" + format + "' (json|prom)");
  }
  if (args.get("--metrics-out")) obs::set_metrics_enabled(true);
  if (args.get("--trace-out")) obs::SpanRecorder::instance().set_enabled(true);
  return 0;
}

/// Flush metrics/trace sinks. Runs even when the command failed: the
/// counters accumulated up to the failure are what a postmortem needs.
int write_telemetry(const util::ArgParser& args) {
  if (const auto path = args.get("--metrics-out")) {
    std::ofstream out{*path};
    if (!out) return fail("cannot open " + *path);
    const auto snapshot = obs::metrics().snapshot();
    if (args.get_or("--metrics-format", "json") == "prom") {
      obs::write_prometheus(out, snapshot);
    } else {
      obs::write_metrics_json(out, snapshot);
    }
  }
  if (const auto path = args.get("--trace-out")) {
    std::ofstream out{*path};
    if (!out) return fail("cannot open " + *path);
    // Supervised runs merge worker sidecars into per-task process lanes;
    // with no lanes this writes byte-identical output to the events-only
    // overload, so single-process traces are unchanged.
    auto& recorder = obs::SpanRecorder::instance();
    obs::write_chrome_trace(out,
                            obs::TraceExport{recorder.sorted_events(), recorder.process_lanes()});
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args{argc, argv};
  const auto command = args.positional(0);
  if (!command) return usage();
  if (const int rc = apply_global_options(args); rc != 0) return rc;
  int rc;
  try {
    rc = dispatch(args, *command);
  } catch (const std::exception& e) {
    rc = fail(e.what());
  }
  if (const int telemetry_rc = write_telemetry(args); telemetry_rc != 0 && rc == 0) {
    rc = telemetry_rc;
  }
  return rc;
}
