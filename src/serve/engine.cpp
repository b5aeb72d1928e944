#include "serve/engine.hpp"

#include <stdexcept>
#include <vector>

#include "dns/name.hpp"
#include "dns/public_suffix.hpp"
#include "ml/dataset.hpp"
#include "obs/metrics.hpp"
#include "util/fsio.hpp"
#include "util/stopwatch.hpp"

namespace dnsembed::serve {

std::unique_ptr<ServeSnapshot> ServeEngine::build_snapshot(std::uint64_t version) const {
  auto snap = std::make_unique<ServeSnapshot>();
  snap->version = version;
  snap->embedding = embed::EmbeddingMatrix::load_file(embeddings_path_);
  snap->model = ml::SvmModel::load_file(model_path_);
  if (snap->embedding.dimension() != snap->model.dimension()) {
    throw std::invalid_argument{"serve: embedding dimension " +
                                std::to_string(snap->embedding.dimension()) +
                                " does not match model dimension " +
                                std::to_string(snap->model.dimension())};
  }

  // Precompute index scores through the exact batch path (decision_values
  // over float-to-double casted rows) so an index hit is byte-identical to
  // the batch pipeline's score for the same domain.
  const std::size_t total = snap->embedding.size();
  const std::size_t indexed =
      options_.index_limit == 0 ? total : std::min(options_.index_limit, total);
  ml::Matrix x{indexed, snap->embedding.dimension()};
  for (std::size_t i = 0; i < indexed; ++i) {
    const auto src = snap->embedding.row(i);
    const auto dst = x.row(i);
    for (std::size_t j = 0; j < src.size(); ++j) dst[j] = static_cast<double>(src[j]);
  }
  // decision_values parallelism comes from the scoring-threads knob;
  // results are identical at every thread count.
  snap->model.set_scoring_threads(options_.threads);
  const std::vector<double> scores = snap->model.decision_values(x);
  const std::vector<std::string> names{snap->embedding.names().begin(),
                                       snap->embedding.names().begin() +
                                           static_cast<std::ptrdiff_t>(indexed)};
  snap->index = ScoreIndex::build(names, scores, options_.hash_seed);
  return snap;
}

ServeEngine::ServeEngine(std::string embeddings_path, std::string model_path,
                         ServeOptions options)
    : embeddings_path_{std::move(embeddings_path)},
      model_path_{std::move(model_path)},
      options_{options} {
  snapshot_.publish(build_snapshot(next_version_.fetch_add(1)));
}

void ServeEngine::reload() {
  auto snap = build_snapshot(next_version_.fetch_add(1));
  static obs::Gauge& entries_gauge = obs::metrics().gauge("serve.index_entries");
  static obs::Gauge& version_gauge = obs::metrics().gauge("serve.snapshot_version");
  static obs::Counter& reload_counter = obs::metrics().counter("serve.reloads");
  entries_gauge.set(static_cast<std::int64_t>(snap->index.size()));
  version_gauge.set(static_cast<std::int64_t>(snap->version));
  reload_counter.add(1);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  snapshot_.publish(std::move(snap));
}

LookupResult ServeEngine::lookup(std::string_view domain) {
  static obs::Counter& lookup_counter = obs::metrics().counter("serve.lookups");
  static obs::Counter& hit_counter = obs::metrics().counter("serve.index_hits");
  static obs::Counter& fallback_counter = obs::metrics().counter("serve.batch_scored");
  static obs::Counter& unknown_counter = obs::metrics().counter("serve.unknown");
  static obs::Histogram& latency =
      obs::metrics().fine_latency_histogram("serve.lookup_seconds");
  const util::Stopwatch watch;

  lookup_counter.add(1);
  lookups_.fetch_add(1, std::memory_order_relaxed);

  // Zero-allocation normalization: lower-case into a stack buffer when
  // needed, then reduce to the e2LD view (falling back to the whole name
  // when the name has no registrable part — e2ld_or_self semantics).
  char buf[dns::kMaxNameLength];
  const std::string_view norm = dns::normalize_name_view(domain, buf);
  std::string_view key = dns::PublicSuffixList::builtin().e2ld_view(norm);
  if (key.empty()) key = norm;

  LookupResult result;
  {
    const auto snap = snapshot_.acquire();
    double score = 0.0;
    if (snap->index.find(key, &score)) {
      hit_counter.add(1);
      index_hits_.fetch_add(1, std::memory_order_relaxed);
      result = {score, score >= 0.0, ScoreSource::kIndex};
    } else if (const auto row = snap->embedding.vector_for(key)) {
      // Fallback: the batch pipeline's float-to-double cast and
      // decision_value, so the score is bit-identical to the batch score.
      const std::vector<double> x(row->begin(), row->end());
      score = snap->model.decision_value(x);
      fallback_counter.add(1);
      batch_scored_.fetch_add(1, std::memory_order_relaxed);
      result = {score, score >= 0.0, ScoreSource::kBatched};
    } else {
      unknown_counter.add(1);
      unknown_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  latency.observe(watch.seconds());
  return result;
}

ServeEngine::Stats ServeEngine::stats() const {
  Stats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.index_hits = index_hits_.load(std::memory_order_relaxed);
  out.batch_scored = batch_scored_.load(std::memory_order_relaxed);
  out.unknown = unknown_.load(std::memory_order_relaxed);
  out.reloads = reloads_.load(std::memory_order_relaxed);
  const auto snap = snapshot_.acquire();
  out.snapshot_version = snap->version;
  out.index_entries = snap->index.size();
  out.index_bytes = snap->index.memory_bytes();
  out.embedding_rows = snap->embedding.size();
  return out;
}

}  // namespace dnsembed::serve
