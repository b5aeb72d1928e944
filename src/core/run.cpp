#include "core/run.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/behavior.hpp"
#include "core/clustering.hpp"
#include "core/report.hpp"
#include "graph/io.hpp"
#include "intel/labels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/generator.hpp"
#include "util/artifact.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace dnsembed::core {

StageDeadlineExceeded::StageDeadlineExceeded(std::string stage)
    : std::runtime_error{"stage '" + stage + "' exceeded its deadline"},
      stage_{std::move(stage)} {}

namespace {

// ---------------------------------------------------------------- layout

/// Artifact files per stage. kind == nullptr marks a raw (non-container)
/// file whose digest is still tracked in the manifest (the report).
struct ArtifactSpec {
  const char* file;
  const char* kind;
};

struct StageSpec {
  const char* name;
  std::vector<ArtifactSpec> artifacts;
};

const std::vector<StageSpec>& stage_specs() {
  static const std::vector<StageSpec> specs{
      {"trace",
       {{"hdbg.bg", "bipartite-arena"},
        {"dibg.bg", "bipartite-arena"},
        {"dtbg.bg", "bipartite-arena"},
        {"truth.gt", "ground-truth"},
        {"trace.stats", "trace-stats"}}},
      {"behavior",
       {{"kept.domains", "domain-list"},
        {"query_sim.csr", "csr-graph"},
        {"ip_sim.csr", "csr-graph"},
        {"temporal_sim.csr", "csr-graph"}}},
      {"embed",
       {{"query.emb", "embedding-arena"},
        {"ip.emb", "embedding-arena"},
        {"temporal.emb", "embedding-arena"},
        {"combined.emb", "embedding-arena"}}},
      {"labels", {{"labeled.set", "labeled-set"}}},
      {"report", {{"report.md", nullptr}}},
  };
  return specs;
}

std::string join(const std::string& dir, std::string_view file) {
  return dir + "/" + std::string{file};
}

// ------------------------------------------------------- small payloads

struct TraceStats {
  std::size_t dns_events = 0;
  std::size_t nxdomain_events = 0;
  std::size_t flow_events = 0;
};

std::string trace_stats_payload(const TraceStats& stats) {
  std::ostringstream out;
  out << "dns_events " << stats.dns_events << "\nnxdomain_events " << stats.nxdomain_events
      << "\nflow_events " << stats.flow_events << "\n";
  return out.str();
}

[[noreturn]] void corrupt_payload(const std::string& path, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{path, std::move(reason)};
}

TraceStats parse_trace_stats(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
  TraceStats stats;
  std::string key;
  if (!(in >> key >> stats.dns_events) || key != "dns_events") {
    corrupt_payload(path, "trace-stats: bad dns_events");
  }
  if (!(in >> key >> stats.nxdomain_events) || key != "nxdomain_events") {
    corrupt_payload(path, "trace-stats: bad nxdomain_events");
  }
  if (!(in >> key >> stats.flow_events) || key != "flow_events") {
    corrupt_payload(path, "trace-stats: bad flow_events");
  }
  return stats;
}

std::string domain_list_payload(const std::vector<std::string>& domains) {
  std::string out = "domains " + std::to_string(domains.size()) + "\n";
  for (const auto& domain : domains) {
    out += domain;
    out += '\n';
  }
  return out;
}

std::vector<std::string> parse_domain_list(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
  std::string key;
  std::size_t count = 0;
  if (!(in >> key >> count) || key != "domains") {
    corrupt_payload(path, "domain-list: bad header");
  }
  std::vector<std::string> out;
  out.reserve(count);
  std::string domain;
  for (std::size_t i = 0; i < count; ++i) {
    if (!(in >> domain)) corrupt_payload(path, "domain-list: truncated");
    out.push_back(domain);
  }
  return out;
}

// -------------------------------------------------------------- manifest

struct ManifestEntry {
  std::string file;
  std::string digest;
};

struct StageRecord {
  std::string name;
  std::vector<ManifestEntry> artifacts;
};

struct Manifest {
  std::string config_hash;
  /// Supervised tasks that exhausted retries (sorted task names, e.g.
  /// "behavior.query"); their stage's artifacts are partial.
  std::vector<std::string> quarantined;
  std::vector<StageRecord> stages;
};

constexpr const char* kManifestFile = "manifest.run";

std::string manifest_payload(const Manifest& manifest) {
  std::string out = "config " + manifest.config_hash + "\n";
  for (const auto& task : manifest.quarantined) {
    out += "quarantined " + task + "\n";
  }
  for (const auto& stage : manifest.stages) {
    out += "stage " + stage.name + " " + std::to_string(stage.artifacts.size()) + "\n";
    for (const auto& entry : stage.artifacts) {
      out += "artifact " + entry.file + " " + entry.digest + "\n";
    }
  }
  return out;
}

Manifest parse_manifest_payload(const std::string& payload, const std::string& path) {
  std::istringstream in{payload};
  Manifest manifest;
  std::string word;
  if (!(in >> word >> manifest.config_hash) || word != "config" ||
      manifest.config_hash.size() != 16) {
    corrupt_payload(path, "manifest: bad config line");
  }
  while (in >> word) {
    if (word == "quarantined") {
      std::string task;
      if (!(in >> task) || !manifest.stages.empty()) {
        corrupt_payload(path, "manifest: bad quarantined line");
      }
      manifest.quarantined.push_back(std::move(task));
      continue;
    }
    if (word != "stage") corrupt_payload(path, "manifest: expected stage record");
    StageRecord record;
    std::size_t count = 0;
    if (!(in >> record.name >> count)) corrupt_payload(path, "manifest: bad stage header");
    for (std::size_t i = 0; i < count; ++i) {
      ManifestEntry entry;
      if (!(in >> word >> entry.file >> entry.digest) || word != "artifact" ||
          entry.digest.size() != 16) {
        corrupt_payload(path, "manifest: bad artifact row");
      }
      record.artifacts.push_back(std::move(entry));
    }
    manifest.stages.push_back(std::move(record));
  }
  return manifest;
}

void save_manifest(const std::string& workdir, const Manifest& manifest) {
  util::save_artifact(join(workdir, kManifestFile), "run-manifest",
                      manifest_payload(manifest));
}

/// Manifest from a previous run, if one exists and validates; nullopt when
/// there is nothing trustworthy to resume from (no manifest yet, torn
/// container, unparseable payload). A manifest that exists but cannot be
/// OPENED — permissions, EIO, a directory where the file should be — is a
/// real input error and propagates as fsio::IoError (filename + errno), so
/// the CLI reports it on exit 3 instead of silently recomputing over a
/// workdir it cannot trust.
std::optional<Manifest> try_load_manifest(const std::string& workdir) {
  const auto path = join(workdir, kManifestFile);
  try {
    return parse_manifest_payload(util::load_artifact(path, "run-manifest"), path);
  } catch (const util::CorruptArtifact& e) {
    util::log_warn() << "run: manifest corrupt (" << e.reason() << "); starting fresh";
    return std::nullopt;
  } catch (const util::fsio::IoError& e) {
    if (e.error_code() == ENOENT) return std::nullopt;  // first run
    throw;
  }
}

// ------------------------------------------------------------ validation

std::string file_digest(std::string_view bytes) {
  return util::hex64(util::xxhash64(bytes));
}

/// A recorded stage can be resumed iff its artifact list matches the spec and
/// every file is present, digest-identical, and (for containers) passes
/// full container validation.
bool stage_artifacts_valid(const std::string& workdir, const StageRecord& record,
                           const StageSpec& spec) {
  if (record.artifacts.size() != spec.artifacts.size()) return false;
  for (std::size_t i = 0; i < spec.artifacts.size(); ++i) {
    const auto& want = spec.artifacts[i];
    const auto& have = record.artifacts[i];
    if (have.file != want.file) return false;
    OBS_SPAN("run.artifact.check");
    const auto path = join(workdir, want.file);
    util::fsio::MappedFile mapped;
    try {
      mapped = util::fsio::map_file(path);
    } catch (const util::fsio::IoError&) {
      return false;  // missing or unreadable -> recompute
    }
    const std::string_view bytes = mapped.bytes();
    if (file_digest(bytes) != have.digest) {
      util::fsio::note_corrupt_detected();
      util::log_warn() << "run: artifact " << path << " digest mismatch; recomputing stage '"
                       << record.name << "'";
      return false;
    }
    if (want.kind != nullptr) {
      try {
        util::validate_artifact_view(bytes, want.kind, path);
      } catch (const util::CorruptArtifact& e) {
        util::log_warn() << "run: artifact " << path << " corrupt (" << e.reason()
                         << "); recomputing stage '" << record.name << "'";
        return false;
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- watchdog

/// Arms a deadline timer for one stage. Cancellation is cooperative: the
/// stage driver polls expired() at artifact commits and substep boundaries
/// (atomic artifact writes mean cancellation never leaves torn files).
class StageWatchdog {
 public:
  StageWatchdog(const char* stage, double seconds) : stage_{stage} {
    if (seconds <= 0.0) return;
    const auto budget = std::chrono::duration<double>{seconds};
    timer_ = std::thread{[this, budget] {
      std::unique_lock lock{mutex_};
      if (!cv_.wait_for(lock, budget, [this] { return disarmed_; })) {
        expired_.store(true, std::memory_order_relaxed);
      }
    }};
  }

  ~StageWatchdog() {
    {
      std::lock_guard lock{mutex_};
      disarmed_ = true;
    }
    cv_.notify_all();
    if (timer_.joinable()) timer_.join();
  }

  void check() const {
    if (expired_.load(std::memory_order_relaxed)) throw StageDeadlineExceeded{stage_};
  }

  /// Test hook: make the next check() throw, exactly as if the timer had
  /// fired — a deterministic mid-stage deadline for the resumability
  /// regression test.
  void force_expire() noexcept { expired_.store(true, std::memory_order_relaxed); }

 private:
  std::string stage_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::atomic<bool> expired_{false};
  std::thread timer_;
};

// ---------------------------------------------------------- stage driver

class StageDriver {
 public:
  StageDriver(const RunOptions& options, Manifest manifest)
      : options_{options}, manifest_{std::move(manifest)} {}

  /// Record a just-written artifact of the stage in flight: its digest,
  /// the test hooks, and a deadline poll.
  void commit(const std::string& file) {
    {
      OBS_SPAN("run.artifact.digest");
      pending_.push_back(
          {file, file_digest(util::fsio::map_file(join(options_.workdir, file)).bytes())});
    }
    if (!options_.crash_after_artifact.empty() && options_.crash_after_artifact == file) {
      util::log_warn() << "run: crash hook firing after " << file;
      std::_Exit(137);
    }
    if (!options_.expire_deadline_after_artifact.empty() &&
        options_.expire_deadline_after_artifact == file) {
      util::log_warn() << "run: deadline hook firing after " << file;
      watchdog_->force_expire();
    }
    watchdog_->check();
  }

  /// Commit every artifact of the stage in flight among `task`'s outputs.
  void commit_outputs(const WorkerTask& task) {
    for (const auto& output : task.outputs) {
      for (const auto& artifact : spec_->artifacts) {
        if (output.path == join(options_.workdir, artifact.file)) commit(artifact.file);
      }
    }
  }

  /// Poll the deadline of the stage in flight.
  void check() const { watchdog_->check(); }

  /// Run or skip one stage. `body` must commit every artifact in the
  /// stage's spec, in any order.
  void stage(const StageSpec& spec, RunSummary& summary, const std::function<void()>& body) {
    util::Stopwatch watch;
    if (const auto* record = resumable_record(spec.name)) {
      if (stage_artifacts_valid(options_.workdir, *record, spec)) {
        obs::metrics().counter("pipeline.stage.resumed").add(1);
        ++summary.resumed_stages;
        summary.stages.push_back({spec.name, true, watch.seconds()});
        util::log_info() << "run: stage '" << spec.name << "' resumed from artifacts";
        completed_.push_back(*record);
        // A resumed stage carries its quarantine flags forward: the
        // partial artifacts are being reused as-is, so the report stays
        // flagged until the stage is actually recomputed.
        for (const auto& task : manifest_.quarantined) {
          if (task.rfind(std::string{spec.name} + ".", 0) == 0) {
            quarantined_.push_back(task);
          }
        }
        // Once this run has rewritten the manifest, it must keep listing
        // every stage, resumed ones included, or the next --resume loses
        // them. A run that resumes every stage writes nothing.
        if (manifest_written_) save_manifest_now();
        return;
      }
    }
    obs::StageSpan span{std::string{"run."} + spec.name};
    StageWatchdog watchdog{spec.name, options_.stage_deadline_seconds};
    spec_ = &spec;
    watchdog_ = &watchdog;
    watchdog.check();
    pending_.clear();
    try {
      body();
    } catch (...) {
      // Mid-stage abort (deadline, I/O failure, supervisor giving up):
      // persist the completed-stage prefix so the on-disk manifest always
      // matches this run's config and exactly the stages that finished —
      // a later --resume then trusts precisely what this run produced and
      // recomputes only the stage that was in flight. Best-effort: if even
      // the manifest cannot be written, the original error wins.
      try {
        save_manifest_now();
      } catch (...) {
      }
      throw;
    }
    completed_.push_back({spec.name, committed_in_spec_order(spec)});
    pending_ = {};
    // Rewrite the manifest after every stage: a crash between stages loses
    // at most the stage in flight.
    save_manifest_now();
    summary.stages.push_back({spec.name, false, watch.seconds()});
    util::log_info() << "run: stage '" << spec.name << "' completed in " << watch.seconds()
                     << "s";
  }

  /// Record tasks quarantined by the supervisor during the current stage;
  /// they appear in every manifest written from now on.
  void add_quarantined(const std::vector<std::string>& tasks) {
    quarantined_.insert(quarantined_.end(), tasks.begin(), tasks.end());
    std::sort(quarantined_.begin(), quarantined_.end());
  }

  const std::vector<std::string>& quarantined() const noexcept { return quarantined_; }

 private:
  std::string config_hash() const { return hash_pipeline_config(options_.config); }

  void save_manifest_now() {
    save_manifest(options_.workdir, {config_hash(), quarantined_, completed_});
    manifest_written_ = true;
  }

  /// The stage's manifest record: its artifacts in spec order, whatever
  /// order the executor committed them in.
  std::vector<ManifestEntry> committed_in_spec_order(const StageSpec& spec) const {
    std::vector<ManifestEntry> entries;
    for (const auto& artifact : spec.artifacts) {
      const auto it = std::find_if(pending_.begin(), pending_.end(),
                                   [&](const ManifestEntry& e) { return e.file == artifact.file; });
      if (it == pending_.end()) {
        throw std::logic_error{std::string{"run: stage '"} + spec.name + "' did not commit " +
                               artifact.file};
      }
      entries.push_back(*it);
    }
    return entries;
  }

  /// The previous run's record for this stage, when resume applies to it.
  const StageRecord* resumable_record(const char* name) const {
    if (!options_.resume) return nullptr;
    if (manifest_.config_hash != config_hash()) return nullptr;
    // Stages only resume in prefix order behind already-valid ones:
    // a recomputed earlier stage is deterministic, so identical artifacts
    // keep later digests valid — but a *failed* validation earlier means
    // later stages were built from inputs we no longer trust.
    const std::size_t position = completed_.size();
    if (position >= manifest_.stages.size()) return nullptr;
    if (manifest_.stages[position].name != name) return nullptr;
    for (std::size_t i = 0; i < position; ++i) {
      if (completed_[i].name != manifest_.stages[i].name ||
          !equal_entries(completed_[i].artifacts, manifest_.stages[i].artifacts)) {
        return nullptr;
      }
    }
    return &manifest_.stages[position];
  }

  static bool equal_entries(const std::vector<ManifestEntry>& a,
                            const std::vector<ManifestEntry>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].file != b[i].file || a[i].digest != b[i].digest) return false;
    }
    return true;
  }

  const RunOptions& options_;
  Manifest manifest_;                  // from the previous run (may be empty)
  std::vector<StageRecord> completed_; // this run, in order
  std::vector<ManifestEntry> pending_; // artifacts of the stage in flight
  std::vector<std::string> quarantined_;  // sorted quarantined task names
  const StageSpec* spec_ = nullptr;       // the stage in flight
  StageWatchdog* watchdog_ = nullptr;     // its deadline
  bool manifest_written_ = false;         // by this run
};

// ------------------------------------------------------------- executors

/// Runs a stage's tasks one round at a time and commits the stage artifacts
/// they write. Inline (--workers 0) it runs each task body in this process,
/// in list order, and commits the task's artifacts right after it.
/// Supervised, a round is one Supervisor::run_tasks call and is committed
/// when it returns; a task the supervisor quarantined commits nothing.
class Executor {
 public:
  Executor(const RunOptions& options, StageDriver& driver) : driver_{driver} {
    if (options.supervise.workers > 0) supervisor_.emplace(options.supervise);
  }

  /// Run one round; returns the tasks quarantined in it.
  std::vector<std::string> run(const std::vector<WorkerTask>& tasks) {
    const auto check = [this] { driver_.check(); };
    if (!supervisor_) {
      for (const auto& task : tasks) {
        task.body(check);
        driver_.commit_outputs(task);
      }
      return {};
    }
    const auto& all_quarantined = supervisor_->stats().quarantined;
    const auto before = static_cast<std::ptrdiff_t>(all_quarantined.size());
    supervisor_->run_tasks(tasks, check);
    std::vector<std::string> quarantined(all_quarantined.begin() + before,
                                         all_quarantined.end());
    driver_.add_quarantined(quarantined);
    for (const auto& task : tasks) {
      if (std::find(quarantined.begin(), quarantined.end(), task.name) == quarantined.end()) {
        driver_.commit_outputs(task);
      }
    }
    return quarantined;
  }

  SupervisionStats stats() const {
    return supervisor_ ? supervisor_->stats() : SupervisionStats{};
  }

 private:
  StageDriver& driver_;
  std::optional<Supervisor> supervisor_;
};

// ------------------------------------------------------------ stage work

std::vector<std::string> load_kept_domains(const std::string& workdir) {
  const auto path = join(workdir, "kept.domains");
  return parse_domain_list(util::load_artifact(path, "domain-list"), path);
}

/// The channel's bipartite graph restricted to the kept domains: the graph
/// build_behavior_model projects.
graph::BipartiteGraph channel_graph(const std::string& workdir, const Channel& channel) {
  return restrict_domains(graph::load_bipartite_file(join(workdir, channel.bipartite)),
                          load_kept_domains(workdir));
}

/// What a quarantined channel commits in place of its projection: an
/// edgeless CSR over its pruned names (isolated vertices are legal).
void save_edgeless_channel(const std::string& workdir, const Channel& channel) {
  const auto names = channel_graph(workdir, channel).right_names().names();
  graph::save_csr_file(join(workdir, channel.similarity),
                       util::CsrGraph::build(names.size(), {}, {}, {}, names));
}

void write_labels_file(const std::string& workdir, const PipelineConfig& config,
                       const std::function<void()>& checkpoint) {
  const auto truth = trace::load_ground_truth_file(join(workdir, "truth.gt"));
  const auto kept = load_kept_domains(workdir);
  checkpoint();
  const intel::VirusTotalSim vt{truth, config.virustotal};
  intel::save_labeled_file(join(workdir, "labeled.set"),
                           intel::build_labeled_set(kept, truth, vt, config.labeling));
}

/// `quarantined` non-empty appends a degraded-run section, so a clean
/// supervised run emits byte-identical bytes to an inline one.
void write_report_file(const std::string& workdir, const PipelineConfig& config,
                       const std::vector<std::string>& quarantined,
                       const std::function<void()>& checkpoint) {
  const auto path = [&](const char* file) { return join(workdir, file); };
  PipelineResult result;
  SimilarityEdgeCounts similarity_edges{};
  {
    OBS_SPAN("run.report.load");
    result.trace.truth = trace::load_ground_truth_file(path("truth.gt"));
    const auto stats = parse_trace_stats(
        util::load_artifact(path("trace.stats"), "trace-stats"), path("trace.stats"));
    result.trace.dns_events = stats.dns_events;
    result.trace.nxdomain_events = stats.nxdomain_events;
    result.trace.flow_events = stats.flow_events;
    result.model.kept_domains = load_kept_domains(workdir);
    // The report reads only the similarity graphs' edge counts: map each
    // arena, no adjacency lists.
    for (std::size_t i = 0; i < std::size(kChannels); ++i) {
      similarity_edges[i] = graph::load_csr_file(path(kChannels[i].similarity)).edge_count();
    }
    result.query_embedding = embed::EmbeddingMatrix::load_file(path("query.emb"));
    result.ip_embedding = embed::EmbeddingMatrix::load_file(path("ip.emb"));
    result.temporal_embedding = embed::EmbeddingMatrix::load_file(path("temporal.emb"));
    result.combined_embedding = embed::EmbeddingMatrix::load_file(path("combined.emb"));
    result.labels = intel::load_labeled_file(path("labeled.set"));
  }
  checkpoint();

  const auto evals = evaluate_channels(result, config);
  checkpoint();
  const auto clusters = cluster_domains(result.combined_embedding, result.model.kept_domains,
                                        result.trace.truth, config.xmeans);
  checkpoint();
  std::ostringstream report;
  write_detection_report(report, result, similarity_edges, evals, clusters);
  if (!quarantined.empty()) {
    report << "\n## Degraded run\n\n"
           << quarantined.size()
           << " task(s) exhausted their retry budget and were quarantined; the "
              "similarity graphs and everything derived from them are partial:\n\n";
    for (const auto& task : quarantined) report << "- `" << task << "`\n";
  }
  util::fsio::atomic_write_file(path("report.md"), report.str());
}

}  // namespace

// ---------------------------------------------------------- config hash

std::string hash_pipeline_config(const PipelineConfig& config) {
  std::ostringstream out;
  out.precision(17);
  out << "run-config 3";
  out << " trace=" << config.trace.seed << ',' << config.trace.campaign_seed << ','
      << config.trace.hosts << ',' << config.trace.days << ',' << config.trace.benign_sites
      << ',' << config.trace.malware_families;
  // Adversarial-scenario knobs change the emitted trace, so they must
  // invalidate resumed stages exactly like the base trace shape does.
  out << " adv=" << config.trace.zero_day_families << ','
      << config.trace.zero_day_activation_day << ',' << config.trace.zero_day_ip_reuse_fraction
      << ',' << config.trace.evasion_families << ',' << config.trace.evasion_mimicry_rate << ','
      << config.trace.evasion_cover_sites << ',' << config.trace.iot_host_fraction << ','
      << config.trace.iot_vendor_domains << ',' << config.trace.iot_burst_period_hours;
  out << " prune=" << config.behavior.prune.min_left_degree << ','
      << config.behavior.prune.max_left_fraction;
  out << " proj=" << config.behavior.query_projection.min_similarity << ','
      << config.behavior.ip_projection.min_similarity << ','
      << config.behavior.temporal_projection.min_similarity;
  // Frozen at the exact-mode text of the removed sketch knobs: old workdirs keep their hash.
  out << " projmode=0,64,32,8,0,1592614637";
  out << " embed=" << static_cast<int>(config.embedding.method) << ','
      << config.embedding_dimension << ',' << config.embedding.line.total_samples << ','
      << config.seed;
  out << " labeling=" << config.labeling.malicious_fraction << ',' << config.labeling.seed;
  out << " svm=" << static_cast<int>(config.svm.kernel) << ',' << config.svm.c << ','
      << config.svm.gamma << ',' << config.kfold;
  out << " xmeans=" << config.xmeans.k_min << ',' << config.xmeans.k_max << ','
      << config.xmeans.seed;
  return util::hex64(util::xxhash64(out.str()));
}

// ------------------------------------------------------------------ run

RunSummary run_resumable(const RunOptions& options) {
  if (options.workdir.empty()) throw std::invalid_argument{"run_resumable: empty workdir"};
  obs::StageSpan run_span{"run.pipeline"};
  util::fsio::create_directories(options.workdir);

  Manifest previous;
  if (options.resume) {
    if (auto loaded = try_load_manifest(options.workdir)) previous = std::move(*loaded);
  }
  StageDriver driver{options, std::move(previous)};
  Executor executor{options, driver};
  const auto& specs = stage_specs();
  const std::string& workdir = options.workdir;
  const PipelineConfig& config = options.config;
  const auto path = [&](const char* file) { return join(workdir, file); };

  RunSummary summary;
  summary.report_path = path("report.md");

  // trace: synthesize the campus capture into the three bipartite graphs
  // plus the ground-truth registry.
  driver.stage(specs[0], summary, [&] {
    WorkerTask task;
    task.name = "trace";
    for (const auto& artifact : specs[0].artifacts) {
      task.outputs.push_back({path(artifact.file), artifact.kind});
    }
    task.body = [&](const auto&) {
      GraphBuilderSink graphs;
      trace::TraceResult trace_result;
      graph::BipartiteGraph hdbg, dibg, dtbg;
      {
        // Trace synthesis with the graph sink inline, then finalization.
        OBS_SPAN("trace.graph_build");
        trace_result = trace::generate_trace(config.trace, graphs);
        hdbg = graphs.take_hdbg();
        dibg = graphs.take_dibg();
        dtbg = graphs.take_dtbg();
      }
      graph::save_bipartite_file(path("hdbg.bg"), hdbg);
      graph::save_bipartite_file(path("dibg.bg"), dibg);
      graph::save_bipartite_file(path("dtbg.bg"), dtbg);
      trace::save_ground_truth_file(path("truth.gt"), trace_result.truth);
      util::save_artifact(path("trace.stats"), "trace-stats",
                          trace_stats_payload({trace_result.dns_events,
                                               trace_result.nxdomain_events,
                                               trace_result.flow_events}));
    };
    executor.run({task});
  });

  // behavior: prune on the HDBG first, then project each channel's
  // bipartite graph restricted to the kept domains, one task per channel
  // writing the channel's CSR. A quarantined channel's graph is edgeless
  // and the run is flagged.
  driver.stage(specs[1], summary, [&] {
    WorkerTask prune;
    prune.name = "behavior.prune";
    prune.outputs.push_back({path("kept.domains"), "domain-list"});
    prune.body = [&](const auto&) {
      util::save_artifact(
          path("kept.domains"), "domain-list",
          domain_list_payload(kept_domains(graph::load_bipartite_file(path("hdbg.bg")),
                                           config.behavior.prune)));
    };
    executor.run({prune});

    std::vector<WorkerTask> tasks;
    for (const auto& channel : kChannels) {
      WorkerTask task;
      task.name = std::string{"behavior."} + channel.name;
      task.quarantinable = true;
      task.outputs.push_back({path(channel.similarity), "csr-graph"});
      task.body = [&, channel](const auto&) {
        graph::save_csr_file(path(channel.similarity),
                             project_channel(channel, channel_graph(workdir, channel),
                                             channel_projection(config, channel)));
      };
      tasks.push_back(std::move(task));
    }
    const auto quarantined = executor.run(tasks);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (std::find(quarantined.begin(), quarantined.end(), tasks[i].name) ==
          quarantined.end()) {
        continue;  // its task wrote the CSR
      }
      save_edgeless_channel(workdir, kChannels[i]);
      driver.commit(kChannels[i].similarity);
    }
  });

  // embed: one LINE embedding per similarity graph (the CSR is memory-
  // mapped, not parsed: LINE's samplers read the mapped adjacency in
  // place), then the concatenated vector over the kept domains.
  driver.stage(specs[2], summary, [&] {
    std::vector<WorkerTask> tasks;
    for (const auto& channel : kChannels) {
      WorkerTask task;
      task.name = std::string{"embed."} + channel.name;
      task.outputs.push_back({path(channel.embedding), "embedding-arena"});
      task.body = [&, channel](const auto&) {
        embed::embed_graph(graph::load_csr_file(path(channel.similarity)),
                           channel_embedding(pipeline_embedding(config), channel))
            .save_file(path(channel.embedding));
      };
      tasks.push_back(std::move(task));
    }
    executor.run(tasks);
    std::vector<embed::EmbeddingMatrix> parts;
    for (const auto& channel : kChannels) {
      parts.push_back(embed::EmbeddingMatrix::load_file(path(channel.embedding)));
    }
    std::vector<const embed::EmbeddingMatrix*> part_views;
    for (const auto& part : parts) part_views.push_back(&part);
    embed::EmbeddingMatrix::concat(load_kept_domains(workdir), part_views)
        .save_file(path("combined.emb"));
    driver.commit("combined.emb");
  });

  // labels: ground truth + simulated VirusTotal over the kept domains.
  driver.stage(specs[3], summary, [&] {
    WorkerTask task;
    task.name = "labels";
    task.outputs.push_back({path("labeled.set"), "labeled-set"});
    task.body = [&](const auto& checkpoint) { write_labels_file(workdir, config, checkpoint); };
    executor.run({task});
  });

  // report: per-channel SVM evaluation + clustering over the persisted
  // artifacts only (nothing carried in memory from earlier stages).
  driver.stage(specs[4], summary, [&] {
    WorkerTask task;
    task.name = "report";
    task.outputs.push_back({path("report.md"), nullptr});
    // The quarantine list is final here: the behavior stage (the only
    // producer of quarantinable tasks) completed before this stage.
    task.body = [&, quarantined = driver.quarantined()](const auto& checkpoint) {
      write_report_file(workdir, config, quarantined, checkpoint);
    };
    executor.run({task});
  });

  summary.supervision = executor.stats();
  summary.quarantined = driver.quarantined();
  return summary;
}

}  // namespace dnsembed::core
