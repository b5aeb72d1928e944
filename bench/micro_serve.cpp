// Serving-path bench: an open-loop Zipf load generator against ServeEngine.
//
// Builds a synthetic artifact pair (embedding + trained SVM), stands up the
// engine with ~90% of the domains in the wait-free score index, and drives
// four phases:
//
//   1. parity    — every domain (indexed, batched fallback, and unknown)
//                  must score byte-identical to the batch pipeline's
//                  decision_value. Gated in smoke and full runs.
//   2. hot path  — single-threaded Zipf stream over indexed domains only;
//                  records p50/p99/p999 lookup latency and lookups/s. The
//                  latency/throughput gates apply to this phase (full runs
//                  only; smoke skips timing gates).
//   3. mixed     — multi-threaded Zipf stream with an 85/10/5 split of
//                  indexed / embedded-but-unindexed / unknown tails; each
//                  reader thread scores its own fallbacks inline.
//                  Informational.
//   4. reload    — readers hammer lookups while the main thread republishes
//                  the snapshot repeatedly; every read must succeed with the
//                  expected score (zero failed or torn reads). Gated always.
//
// Results land in BENCH_serve.json (override with DNSEMBED_BENCH_JSON);
// DNSEMBED_BENCH_SMOKE=1 shrinks the scale and skips the timing gates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "embed/embedding.hpp"
#include "ml/dataset.hpp"
#include "ml/svm.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/zipf.hpp"

namespace {

using namespace dnsembed;

struct BenchSetup {
  std::vector<std::string> names;
  std::vector<double> expected;  // batch-pipeline score per embedding row
  std::string embeddings_path;
  std::string model_path;
  std::size_t dim = 0;
};

BenchSetup build_artifacts(const std::string& dir, std::size_t rows, std::size_t dim,
                           std::size_t train_rows) {
  BenchSetup setup;
  setup.dim = dim;
  setup.embeddings_path = dir + "/emb.arena";
  setup.model_path = dir + "/model.svm";

  setup.names.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) setup.names.push_back("d" + std::to_string(i) + ".bench");

  embed::EmbeddingMatrix embedding{setup.names, dim};
  util::Rng rng{0x5e12feULL};
  for (std::size_t i = 0; i < rows; ++i) {
    auto row = embedding.row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>(rng.uniform() - 0.5);
    }
  }
  embedding.save_file(setup.embeddings_path);

  // Train a small SVM on a prefix of the rows; the label is a noisy linear
  // cut through the embedding space so both classes are populated.
  ml::Dataset train;
  train.x = ml::Matrix{train_rows, dim};
  train.y.resize(train_rows);
  train.names.assign(setup.names.begin(), setup.names.begin() + static_cast<long>(train_rows));
  for (std::size_t i = 0; i < train_rows; ++i) {
    const auto src = embedding.row(i);
    const auto dst = train.x.row(i);
    double dot = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      dst[j] = static_cast<double>(src[j]);
      dot += (j % 2 == 0 ? 1.0 : -1.0) * dst[j];
    }
    train.y[i] = dot >= 0.0 ? 1 : 0;
  }
  ml::SvmConfig config;
  config.c = 1.0;
  config.gamma = 0.5;
  const ml::SvmModel model = ml::train_svm(train, config);
  model.save_file(setup.model_path);

  setup.expected.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto src = embedding.row(i);
    std::vector<double> x(src.begin(), src.end());
    setup.expected[i] = model.decision_value(x);
  }
  return setup;
}

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = std::min(sorted_us.size() - 1,
                            static_cast<std::size_t>(q * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  const bool smoke = std::getenv("DNSEMBED_BENCH_SMOKE") != nullptr;
  const char* json_path = std::getenv("DNSEMBED_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_serve.json";

  const std::size_t rows = smoke ? 2'000 : 20'000;
  const std::size_t dim = smoke ? 12 : 24;
  const std::size_t train_rows = smoke ? 80 : 300;
  const std::size_t hot_requests = smoke ? 20'000 : 200'000;
  const std::size_t mixed_requests = smoke ? 8'000 : 40'000;
  const std::size_t mixed_threads = 4;
  const std::size_t reloads = smoke ? 3 : 10;
  const std::size_t indexed = rows * 9 / 10;  // tail stays on the batched path

  const auto scratch = (std::filesystem::temp_directory_path() / "dnsembed_micro_serve").string();
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  util::Stopwatch setup_watch;
  const BenchSetup setup = build_artifacts(scratch, rows, dim, train_rows);

  serve::ServeOptions options;
  options.index_limit = indexed;
  serve::ServeEngine engine{setup.embeddings_path, setup.model_path, options};
  const double setup_ms = setup_watch.millis();

  // --- phase 1: parity against the batch pipeline -------------------------
  std::atomic<std::uint64_t> parity_checked{0};
  std::atomic<std::uint64_t> parity_mismatches{0};
  const auto check_lookup = [&](std::size_t i) {
    const auto result = engine.lookup(setup.names[i]);
    parity_checked.fetch_add(1, std::memory_order_relaxed);
    const auto want_source =
        i < indexed ? serve::ScoreSource::kIndex : serve::ScoreSource::kBatched;
    if (result.source != want_source || result.score != setup.expected[i]) {
      parity_mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (std::size_t i = 0; i < rows; ++i) check_lookup(i);
  for (int i = 0; i < 64; ++i) {
    const auto result = engine.lookup("absent" + std::to_string(i) + ".zz");
    parity_checked.fetch_add(1, std::memory_order_relaxed);
    if (result.source != serve::ScoreSource::kUnknown) {
      parity_mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // --- phase 2: single-threaded hot path over indexed domains -------------
  util::Rng hot_rng{0x201fULL};
  const util::ZipfSampler hot_zipf{indexed, 1.0};
  std::vector<std::size_t> hot_stream(hot_requests);
  for (auto& r : hot_stream) r = hot_zipf.sample(hot_rng);

  std::vector<double> latencies_us;
  latencies_us.reserve(hot_requests);
  util::Stopwatch hot_watch;
  for (const std::size_t r : hot_stream) {
    const double start = now_us();
    const auto result = engine.lookup(setup.names[r]);
    latencies_us.push_back(now_us() - start);
    if (result.score != setup.expected[r]) parity_mismatches.fetch_add(1);
  }
  const double hot_wall_ms = hot_watch.millis();
  const double lookups_per_sec = static_cast<double>(hot_requests) / (hot_wall_ms / 1e3);
  std::sort(latencies_us.begin(), latencies_us.end());
  const double p50 = percentile(latencies_us, 0.50);
  const double p99 = percentile(latencies_us, 0.99);
  const double p999 = percentile(latencies_us, 0.999);

  // --- phase 3: mixed open-loop stream, multi-threaded --------------------
  // 85% indexed Zipf head, 10% embedded-but-unindexed (SVM fallback),
  // 5% unknown. Request streams are pregenerated so arrival order does not
  // depend on completion times.
  enum class Kind { kHead, kTail, kAbsent };
  struct MixedRequest {
    Kind kind;
    std::size_t row;
  };
  std::vector<std::vector<MixedRequest>> streams(mixed_threads);
  {
    util::Rng mix_rng{0x1157ULL};
    const std::size_t per_thread = mixed_requests / mixed_threads;
    for (auto& stream : streams) {
      stream.reserve(per_thread);
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::uint64_t pick = mix_rng() % 100;
        if (pick < 85) {
          stream.push_back({Kind::kHead, hot_zipf.sample(mix_rng)});
        } else if (pick < 95) {
          stream.push_back({Kind::kTail, indexed + mix_rng() % (rows - indexed)});
        } else {
          stream.push_back({Kind::kAbsent, mix_rng() % 1024});
        }
      }
    }
  }
  const auto stats_before_mixed = engine.stats();
  util::Stopwatch mixed_watch;
  {
    std::vector<std::thread> workers;
    workers.reserve(mixed_threads);
    for (std::size_t t = 0; t < mixed_threads; ++t) {
      workers.emplace_back([&, t] {
        for (const auto& request : streams[t]) {
          if (request.kind == Kind::kAbsent) {
            const auto result = engine.lookup("absent" + std::to_string(request.row) + ".zz");
            if (result.source != serve::ScoreSource::kUnknown) parity_mismatches.fetch_add(1);
          } else {
            const auto result = engine.lookup(setup.names[request.row]);
            if (result.score != setup.expected[request.row]) parity_mismatches.fetch_add(1);
          }
          parity_checked.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  const double mixed_wall_ms = mixed_watch.millis();
  const double mixed_lookups_per_sec =
      static_cast<double>(mixed_requests / mixed_threads * mixed_threads) / (mixed_wall_ms / 1e3);
  const std::uint64_t mixed_batch_scored =
      engine.stats().batch_scored - stats_before_mixed.batch_scored;

  // --- phase 4: snapshot-swap under load ----------------------------------
  std::atomic<std::uint64_t> reload_lookups{0};
  std::atomic<std::uint64_t> reload_failed{0};
  std::atomic<double> reload_max_us{0.0};
  std::atomic<bool> stop_readers{false};
  util::Stopwatch reload_watch;
  {
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        util::Rng rng{0xbeefULL + t};
        while (!stop_readers.load(std::memory_order_acquire)) {
          const std::size_t r = hot_zipf.sample(rng);
          const double start = now_us();
          const auto result = engine.lookup(setup.names[r]);
          const double took = now_us() - start;
          double prev = reload_max_us.load(std::memory_order_relaxed);
          while (took > prev &&
                 !reload_max_us.compare_exchange_weak(prev, took, std::memory_order_relaxed)) {
          }
          if (result.source != serve::ScoreSource::kIndex ||
              result.score != setup.expected[r]) {
            reload_failed.fetch_add(1, std::memory_order_relaxed);
          }
          reload_lookups.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::size_t i = 0; i < reloads; ++i) engine.reload();
    stop_readers.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
  }
  const double reload_wall_ms = reload_watch.millis();
  const auto final_stats = engine.stats();
  std::filesystem::remove_all(scratch);

  // --- gates ---------------------------------------------------------------
  // Timing numbers are from a single shared core; the thresholds leave wide
  // headroom over the measured values so only a genuine hot-path regression
  // (an allocation, a lock, a second hash pass) trips them.
  const double p99_us_max = 25.0;
  const double lookups_per_sec_min = 300'000.0;
  const bool timing_gated = !smoke;
  const bool p99_ok = !timing_gated || p99 <= p99_us_max;
  const bool rate_ok = !timing_gated || lookups_per_sec >= lookups_per_sec_min;
  const bool parity_ok = parity_mismatches.load() == 0;
  const bool reload_ok =
      reload_failed.load() == 0 && final_stats.snapshot_version == reloads + 1;

  std::FILE* out = std::fopen(json_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_serve: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"smoke\": %s,\n  ", smoke ? "true" : "false");
  bench::write_machine_json(out);
  std::fprintf(out,
               ",\n"
               "  \"domains\": %zu,\n"
               "  \"indexed_domains\": %zu,\n"
               "  \"dimension\": %zu,\n"
               "  \"setup_ms\": %.1f,\n"
               "  \"hot_requests\": %zu,\n"
               "  \"hot_wall_ms\": %.1f,\n"
               "  \"lookups_per_sec\": %.0f,\n"
               "  \"p50_us\": %.3f,\n"
               "  \"p99_us\": %.3f,\n"
               "  \"p999_us\": %.3f,\n"
               "  \"mixed_requests\": %zu,\n"
               "  \"mixed_threads\": %zu,\n"
               "  \"mixed_wall_ms\": %.1f,\n"
               "  \"mixed_lookups_per_sec\": %.0f,\n"
               "  \"mixed_batch_scored\": %llu,\n"
               "  \"reloads\": %zu,\n"
               "  \"reload_wall_ms\": %.1f,\n"
               "  \"reload_lookups\": %llu,\n"
               "  \"reload_failed_reads\": %llu,\n"
               "  \"reload_max_lookup_us\": %.1f,\n"
               "  \"parity_checked\": %llu,\n"
               "  \"parity_mismatches\": %llu,\n"
               "  \"gate_p99_us_max\": %.1f,\n"
               "  \"gate_lookups_per_sec_min\": %.0f,\n"
               "  \"timing_gates_enforced\": %s,\n"
               "  \"gates_passed\": %s\n"
               "}\n",
               rows, indexed, dim, setup_ms, hot_requests, hot_wall_ms,
               lookups_per_sec, p50, p99, p999, mixed_requests, mixed_threads, mixed_wall_ms,
               mixed_lookups_per_sec,
               static_cast<unsigned long long>(mixed_batch_scored), reloads, reload_wall_ms,
               static_cast<unsigned long long>(reload_lookups.load()),
               static_cast<unsigned long long>(reload_failed.load()), reload_max_us.load(),
               static_cast<unsigned long long>(parity_checked.load()),
               static_cast<unsigned long long>(parity_mismatches.load()), p99_us_max,
               lookups_per_sec_min, timing_gated ? "true" : "false",
               (p99_ok && rate_ok && parity_ok && reload_ok) ? "true" : "false");
  std::fclose(out);

  std::printf("wrote %s\n", json_path);
  std::printf(
      "hot path: %.0f lookups/s, p50 %.2f us, p99 %.2f us, p999 %.2f us; "
      "mixed %.0f lookups/s (%llu batch-scored); %zu reloads with %llu reads, "
      "%llu failed\n",
      lookups_per_sec, p50, p99, p999, mixed_lookups_per_sec,
      static_cast<unsigned long long>(mixed_batch_scored), reloads,
      static_cast<unsigned long long>(reload_lookups.load()),
      static_cast<unsigned long long>(reload_failed.load()));
  bool failed = false;
  if (!parity_ok) {
    std::fprintf(stderr, "micro_serve: FAIL: %llu daemon scores diverged from the batch pipeline\n",
                 static_cast<unsigned long long>(parity_mismatches.load()));
    failed = true;
  }
  if (!reload_ok) {
    std::fprintf(stderr,
                 "micro_serve: FAIL: snapshot swap broke reads (failed=%llu, version=%llu)\n",
                 static_cast<unsigned long long>(reload_failed.load()),
                 static_cast<unsigned long long>(final_stats.snapshot_version));
    failed = true;
  }
  if (!p99_ok) {
    std::fprintf(stderr, "micro_serve: FAIL: in-index p99 %.2f us exceeds gate %.1f us\n", p99,
                 p99_us_max);
    failed = true;
  }
  if (!rate_ok) {
    std::fprintf(stderr, "micro_serve: FAIL: %.0f lookups/s under gate %.0f\n", lookups_per_sec,
                 lookups_per_sec_min);
    failed = true;
  }
  return failed ? 1 : 0;
}
