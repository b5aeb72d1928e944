// Serving subsystem suite: the lock-free score index (build, probe,
// artifact round-trip), hazard-slot snapshot swapping (torn-read and
// retirement checks under concurrent readers — this file carries the
// concurrency label so the TSan preset hammers it), and the serve engine
// end to end: index hits and inline SVM fallbacks must be byte-identical
// to the batch pipeline's decision values for the same artifacts, through
// reloads under load, and the line-protocol front end must speak the
// documented format and answer a pipelined burst in order with one flush.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "embed/embedding.hpp"
#include "ml/dataset.hpp"
#include "ml/svm.hpp"
#include "serve/engine.hpp"
#include "serve/score_index.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/artifact.hpp"
#include "util/fsio.hpp"

namespace dnsembed {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ score index

TEST(ScoreIndex, BuildFindAndMiss) {
  std::vector<std::string> names;
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) {
    names.push_back("d" + std::to_string(i) + ".test");
    scores.push_back(0.125 * i - 20.0);
  }
  const auto index = serve::ScoreIndex::build(names, scores, 42);
  EXPECT_EQ(index.size(), names.size());
  // Power-of-two buckets at <= 50% slot occupancy.
  EXPECT_EQ(index.bucket_count() & (index.bucket_count() - 1), 0u);
  EXPECT_GE(index.bucket_count() * serve::ScoreIndex::kSlotsPerBucket, 2 * names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    double score = 0.0;
    ASSERT_TRUE(index.find(names[i], &score)) << names[i];
    EXPECT_EQ(score, scores[i]) << names[i];  // exact doubles, not approx
  }
  double score = 0.0;
  EXPECT_FALSE(index.find("absent.test", &score));
  EXPECT_FALSE(index.find("", &score));
}

TEST(ScoreIndex, EmptyIndexFindsNothing) {
  const auto index = serve::ScoreIndex::build({}, {}, 7);
  EXPECT_TRUE(index.empty());
  double score = 0.0;
  EXPECT_FALSE(index.find("anything.test", &score));
}

TEST(ScoreIndex, DuplicateNameRejected) {
  const std::vector<std::string> names{"a.test", "a.test"};
  const std::vector<double> scores{1.0, 2.0};
  EXPECT_THROW(serve::ScoreIndex::build(names, scores, 1), std::invalid_argument);
}

TEST(ScoreIndex, ArtifactRoundTripIsExact) {
  std::vector<std::string> names;
  std::vector<double> scores;
  for (int i = 0; i < 100; ++i) {
    names.push_back("rt" + std::to_string(i) + ".example");
    scores.push_back(-3.0 + 0.0625 * i);
  }
  const auto index = serve::ScoreIndex::build(names, scores, 99);
  const auto path = (fs::temp_directory_path() / "dnsembed_score_index.art").string();
  index.save_file(path);
  const auto loaded = serve::ScoreIndex::load_file(path);
  fs::remove(path);
  EXPECT_EQ(loaded.size(), index.size());
  EXPECT_EQ(loaded.bucket_count(), index.bucket_count());
  EXPECT_EQ(loaded.seed(), index.seed());
  for (std::size_t i = 0; i < names.size(); ++i) {
    double score = 0.0;
    ASSERT_TRUE(loaded.find(names[i], &score));
    EXPECT_EQ(score, scores[i]);
  }
}

TEST(ScoreIndex, WrongKindAndDamagedMetaRejected) {
  const auto path = (fs::temp_directory_path() / "dnsembed_score_bad.art").string();
  util::save_artifact(path, "csr-graph", "not an index");
  EXPECT_THROW(serve::ScoreIndex::load_file(path), util::CorruptArtifact);
  // A structurally valid arena of the right kind with a wrong meta shape.
  const std::vector<std::string> one_name{"x.test"};
  const std::vector<double> one_score{0.5};
  const auto index = serve::ScoreIndex::build(one_name, one_score, 3);
  std::string payload = index.payload();
  util::save_artifact(path, serve::kScoreIndexKind, payload.substr(0, payload.size() / 2));
  EXPECT_THROW(serve::ScoreIndex::load_file(path), util::CorruptArtifact);
  fs::remove(path);
}

// -------------------------------------------------------- snapshot holder

struct CountedSnap {
  static std::atomic<int> live;
  std::uint64_t a;
  std::uint64_t b;  // consistency twin: must always equal a * kTwin
  std::uint64_t fill[64];

  static constexpr std::uint64_t kTwin = 0x9E3779B97F4A7C15ULL;
  explicit CountedSnap(std::uint64_t v) : a{v}, b{v * kTwin} {
    for (std::uint64_t i = 0; i < 64; ++i) fill[i] = v + i;
    live.fetch_add(1, std::memory_order_relaxed);
  }
  ~CountedSnap() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> CountedSnap::live{0};

TEST(SnapshotHolder, PublishSwapsAndRetires) {
  {
    serve::SnapshotHolder<CountedSnap> holder;
    EXPECT_FALSE(holder.has_value());
    holder.publish(std::make_unique<CountedSnap>(1));
    {
      const auto guard = holder.acquire();
      ASSERT_TRUE(guard);
      EXPECT_EQ(guard->a, 1u);
    }
    holder.publish(std::make_unique<CountedSnap>(2));
    // The old snapshot is retired before publish returns.
    EXPECT_EQ(CountedSnap::live.load(), 1);
    const auto guard = holder.acquire();
    EXPECT_EQ(guard->a, 2u);
  }
  EXPECT_EQ(CountedSnap::live.load(), 0);
}

TEST(SnapshotHolder, ConcurrentReadersSeeNoTornState) {
  constexpr int kReaders = 4;
  constexpr std::uint64_t kPublishes = 300;
  {
    serve::SnapshotHolder<CountedSnap> holder;
    holder.publish(std::make_unique<CountedSnap>(1));
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> checks{0};
    std::atomic<int> torn{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const auto guard = holder.acquire();
          const std::uint64_t a = guard->a;
          if (guard->b != a * CountedSnap::kTwin) torn.fetch_add(1);
          for (std::uint64_t i = 0; i < 64; ++i) {
            if (guard->fill[i] != a + i) {
              torn.fetch_add(1);
              break;
            }
          }
          checks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // On a loaded single-core box the publisher can run to completion before
    // any reader is ever scheduled; wait until the readers are actually
    // checking so every publish races with live acquires.
    while (checks.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
    for (std::uint64_t v = 2; v <= kPublishes; ++v) {
      holder.publish(std::make_unique<CountedSnap>(v));
      // Retirement is complete before publish returns: only the freshly
      // published snapshot may be alive.
      ASSERT_EQ(CountedSnap::live.load(), 1) << "snapshot leaked at publish " << v;
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_EQ(torn.load(), 0);
    EXPECT_GT(checks.load(), 0u);
  }
  EXPECT_EQ(CountedSnap::live.load(), 0);
}

// ------------------------------------------------------------ serve engine

struct EngineFixture {
  std::string dir;
  std::string embeddings_path;
  std::string model_path;
  embed::EmbeddingMatrix embedding;
  ml::SvmModel model;

  explicit EngineFixture(const std::string& tag, std::size_t rows = 40, std::size_t dim = 6) {
    dir = (fs::temp_directory_path() / ("dnsembed_serve_" + tag)).string();
    fs::create_directories(dir);
    embeddings_path = dir + "/emb.arena";
    model_path = dir + "/model.svm";

    std::vector<std::string> names;
    names.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) names.push_back("d" + std::to_string(i) + ".test");
    embedding = embed::EmbeddingMatrix{names, dim};
    std::uint64_t state = 0xabcdef12345ULL + rows;
    for (std::size_t i = 0; i < rows; ++i) {
      auto row = embedding.row(i);
      for (std::size_t j = 0; j < dim; ++j) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        row[j] = static_cast<float>(static_cast<double>(state >> 40) / double{1 << 24} - 0.5);
      }
    }
    embedding.save_file(embeddings_path);

    ml::Dataset train;
    train.x = ml::Matrix{rows, dim};
    train.y.resize(rows);
    train.names = names;
    for (std::size_t i = 0; i < rows; ++i) {
      const auto src = embedding.row(i);
      const auto dst = train.x.row(i);
      for (std::size_t j = 0; j < dim; ++j) dst[j] = static_cast<double>(src[j]);
      train.y[i] = static_cast<int>(i % 2);
    }
    ml::SvmConfig config;
    config.c = 1.0;
    config.gamma = 0.5;
    model = ml::train_svm(train, config);
    model.save_file(model_path);
  }
  ~EngineFixture() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  /// The batch pipeline's score for embedding row i (float rows cast to
  /// doubles, exact decision_value path).
  double batch_score(std::size_t i) const {
    const auto src = embedding.row(i);
    std::vector<double> x(src.begin(), src.end());
    return model.decision_value(x);
  }
};

TEST(ServeEngine, IndexHitsAreByteIdenticalToBatchScores) {
  const EngineFixture fx{"parity"};
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, {}};
  const auto stats = engine.stats();
  EXPECT_EQ(stats.index_entries, fx.embedding.size());
  EXPECT_EQ(stats.snapshot_version, 1u);
  for (std::size_t i = 0; i < fx.embedding.size(); ++i) {
    const auto result = engine.lookup(fx.embedding.names()[i]);
    EXPECT_EQ(result.source, serve::ScoreSource::kIndex);
    EXPECT_EQ(result.score, fx.batch_score(i)) << fx.embedding.names()[i];
    EXPECT_EQ(result.malicious, result.score >= 0.0);
  }
  // Normalization funnels variants of an indexed name to the same entry.
  const auto variant = engine.lookup("WWW.D3.TEST.");
  EXPECT_EQ(variant.source, serve::ScoreSource::kIndex);
  EXPECT_EQ(variant.score, fx.batch_score(3));
}

TEST(ServeEngine, BatchedFallbackMatchesBatchScores) {
  const EngineFixture fx{"batched"};
  serve::ServeOptions options;
  options.index_limit = 10;  // rows 10.. fall through to the SVM fallback
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, options};
  EXPECT_EQ(engine.stats().index_entries, 10u);
  for (std::size_t i = 0; i < fx.embedding.size(); ++i) {
    const auto result = engine.lookup(fx.embedding.names()[i]);
    if (i < 10) {
      EXPECT_EQ(result.source, serve::ScoreSource::kIndex);
    } else {
      EXPECT_EQ(result.source, serve::ScoreSource::kBatched);
    }
    EXPECT_EQ(result.score, fx.batch_score(i)) << i;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.index_hits, 10u);
  EXPECT_EQ(stats.batch_scored, fx.embedding.size() - 10u);
}

TEST(ServeEngine, UnknownDomainsReportUnknown) {
  const EngineFixture fx{"unknown"};
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, {}};
  const auto result = engine.lookup("never-seen.example");
  EXPECT_EQ(result.source, serve::ScoreSource::kUnknown);
  EXPECT_FALSE(result.malicious);
  EXPECT_EQ(engine.stats().unknown, 1u);
}

TEST(ServeEngine, ConcurrentFallbackLookupsMatchBatchScores) {
  const EngineFixture fx{"fallback4"};
  serve::ServeOptions options;
  options.index_limit = 1;  // nearly everything goes through the fallback
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, options};
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 1; i < fx.embedding.size(); ++i) {
        const std::size_t row = (i + static_cast<std::size_t>(t) * 7) % fx.embedding.size();
        if (row == 0) continue;
        const auto result = engine.lookup(fx.embedding.names()[row]);
        if (result.source != serve::ScoreSource::kBatched ||
            result.score != fx.batch_score(row)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeEngine, ReloadUnderLoadKeepsEveryLookupConsistent) {
  const EngineFixture fx{"reload"};
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, {}};

  // Reference scores computed once: the artifacts never change, so every
  // lookup across every snapshot generation must return exactly these.
  std::vector<double> expected;
  for (std::size_t i = 0; i < fx.embedding.size(); ++i) expected.push_back(fx.batch_score(i));

  constexpr int kReaders = 3;
  constexpr int kReloads = 25;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t row = i++ % fx.embedding.size();
        const auto result = engine.lookup(fx.embedding.names()[row]);
        if (result.source != serve::ScoreSource::kIndex || result.score != expected[row]) {
          mismatches.fetch_add(1);
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Reload only once the readers are reading: 25 reloads can finish before
  // a reader thread is first scheduled on a loaded machine, and then no
  // lookup would overlap a reload.
  while (lookups.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  for (int n = 0; n < kReloads; ++n) engine.reload();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(lookups.load(), 0u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.reloads, static_cast<std::uint64_t>(kReloads));
  EXPECT_EQ(stats.snapshot_version, static_cast<std::uint64_t>(kReloads) + 1);
}

// -------------------------------------------------------------- line server

TEST(LineServer, SpeaksTheDocumentedProtocol) {
  const EngineFixture fx{"server"};
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, {}};

  std::istringstream in("d0.test\n\nd1.test\r\n!stats\nno-such.example\n!reload\n!quit\n");
  std::ostringstream out;
  const std::uint64_t scored = serve::run_line_server(engine, in, out);
  EXPECT_EQ(scored, 3u);

  std::istringstream lines{out.str()};
  std::string line;

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\td0.test"), std::string::npos);
  EXPECT_NE(line.find("\tindex\t"), std::string::npos);
  {
    std::istringstream fields{line};
    double score = 0.0;
    ASSERT_TRUE(fields >> score);
    EXPECT_EQ(score, fx.batch_score(0));  // full precision over the wire
  }

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\td1.test"), std::string::npos);

  ASSERT_TRUE(std::getline(lines, line));  // !stats JSON
  EXPECT_EQ(line.find('{'), 0u);
  EXPECT_NE(line.find("\"index_hits\": 2"), std::string::npos);

  ASSERT_TRUE(std::getline(lines, line));  // unknown domain
  EXPECT_NE(line.find("\tunknown\tunknown\t"), std::string::npos);

  ASSERT_TRUE(std::getline(lines, line));  // !reload ack
  EXPECT_EQ(line, "ok reload version=2");
}

/// Output buffer that counts flushes, notes the ones that ran while `in`
/// still had unread input, and records how much was written by the first.
class FlushCountingBuf : public std::stringbuf {
 public:
  explicit FlushCountingBuf(std::istream& in) : in_{in} {}

  int syncs = 0;
  int syncs_with_input_left = 0;
  std::size_t bytes_at_first_sync = 0;

 protected:
  int sync() override {
    if (syncs++ == 0) bytes_at_first_sync = str().size();
    if (in_.rdbuf()->in_avail() > 0) ++syncs_with_input_left;
    return std::stringbuf::sync();
  }

 private:
  std::istream& in_;
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(LineServer, PipelinedBurstRepliesInOrderWithOneFlush) {
  const EngineFixture fx{"burst"};
  serve::ServeOptions options;
  options.index_limit = 10;  // d10.test.. reach the SVM fallback
  // The last three lines are hostile names for the stack-buffer
  // normalization path (the serving label reruns under ASan): over-long
  // mixed case, dots only, and non-ASCII bytes.
  const std::vector<std::string> burst{
      "d0.test",  "d15.test",      "",         "no-such.example", "d3.test\r",
      "!stats",   "WWW.D27.TEST.", "d12.test", "!reload",         "d1.test",
      "",         "d39.test\r",    "gone.example", "!stats",     "d10.test",
      std::string(300, 'Q') + ".TEST", "...", "\xc3\xa9X.T\xffst"};

  // Reference: every line sent alone, in order, to an engine with the same
  // history, so counters and reload versions match line for line.
  serve::ServeEngine alone{fx.embeddings_path, fx.model_path, options};
  std::string expected;
  for (const std::string& line : burst) {
    std::istringstream in{line + "\n"};
    std::ostringstream out;
    serve::run_line_server(alone, in, out);
    expected += out.str();
  }

  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, options};
  std::string input;
  for (const std::string& line : burst) input += line + "\n";
  std::istringstream in{input};
  FlushCountingBuf buf{in};
  std::ostream out{&buf};
  const std::uint64_t scored = serve::run_line_server(engine, in, out);

  EXPECT_EQ(scored, 13u);
  const auto replies = split_lines(buf.str());
  EXPECT_EQ(replies, split_lines(expected));
  ASSERT_EQ(replies.size(), 16u);  // two blank lines get no reply
  EXPECT_NE(replies[0].find("\tindex\td0.test"), std::string::npos);
  EXPECT_NE(replies[1].find("\tbatched\td15.test"), std::string::npos);
  EXPECT_NE(replies[2].find("\tunknown\tunknown\tno-such.example"), std::string::npos);
  EXPECT_EQ(replies[7], "ok reload version=2");
  EXPECT_NE(replies[12].find("\tbatched\td10.test"), std::string::npos);
  for (std::size_t i = 13; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].rfind("0\tunknown\tunknown\t", 0), 0u) << replies[i];
  }

  // The whole burst was buffered before the first flush, and no flush ran
  // while input was left to read.
  EXPECT_GE(buf.syncs, 1);
  EXPECT_EQ(buf.syncs_with_input_left, 0);
  EXPECT_EQ(buf.bytes_at_first_sync, buf.str().size());
}

TEST(LineServer, WritesAtomicStatusFile) {
  const EngineFixture fx{"status"};
  serve::ServeEngine engine{fx.embeddings_path, fx.model_path, {}};
  const auto status_path = fx.dir + "/status.json";

  std::istringstream in("d0.test\nd1.test\n");
  std::ostringstream out;
  serve::ServerOptions options;
  options.status_path = status_path;
  options.status_every = 1;
  serve::run_line_server(engine, in, out, options);

  const std::string status = util::fsio::read_file(status_path);
  EXPECT_NE(status.find("\"lookups\": 2"), std::string::npos);
  EXPECT_NE(status.find("\"snapshot_version\": 1"), std::string::npos);
  EXPECT_NE(status.find("\"index_entries\": "), std::string::npos);
}

}  // namespace
}  // namespace dnsembed
