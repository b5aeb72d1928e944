// Unit tests for the util module: RNG determinism and distributions, Zipf
// sampling, string helpers, CSV round-trips, stats, interner, thread pool.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "util/csv.hpp"
#include "util/interner.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace dnsembed::util {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng{7};
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{11};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng{3};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng{5};
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatchesBothRegimes) {
  Rng rng{9};
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.add(static_cast<double>(rng.poisson(3.0)));
    large.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng{13};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{17};
  const std::vector<double> w{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng{1};
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{21};
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfSampler zipf{100, 1.0};
  double total = 0.0;
  double prev = 1.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const double p = zipf.pmf(i);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, HeadRankDominates) {
  ZipfSampler zipf{1000, 1.0};
  Rng rng{23};
  int rank0 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) == 0) ++rank0;
  }
  // P(rank 0) = 1/H_1000 ~= 0.1336.
  EXPECT_NEAR(rank0 / static_cast<double>(n), 0.1336, 0.01);
}

TEST(Zipf, RejectsEmptyDomain) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "."), "x.y.z");
  EXPECT_EQ(join({}, "."), "");
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  EXPECT_EQ(to_lower("AbC.COM"), "abc.com");
}

TEST(Strings, PrefixSuffix) {
  EXPECT_TRUE(starts_with("example.com", "exam"));
  EXPECT_FALSE(starts_with("ex", "exam"));
  EXPECT_TRUE(ends_with("example.com", ".com"));
  EXPECT_FALSE(ends_with("com", ".com"));
}

TEST(Strings, EntropyBounds) {
  EXPECT_DOUBLE_EQ(shannon_entropy(""), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy("aaaa"), 0.0);
  EXPECT_NEAR(shannon_entropy("abcd"), 2.0, 1e-9);
  // Random-looking DGA names have higher entropy than English words.
  EXPECT_GT(shannon_entropy("xkqvjzpwmh"), shannon_entropy("googleesss"));
}

TEST(Strings, DigitRatio) {
  EXPECT_DOUBLE_EQ(digit_ratio(""), 0.0);
  EXPECT_DOUBLE_EQ(digit_ratio("abc"), 0.0);
  EXPECT_DOUBLE_EQ(digit_ratio("a1b2"), 0.5);
  EXPECT_DOUBLE_EQ(digit_ratio("123"), 1.0);
}

TEST(Csv, WriterQuotesSpecialFields) {
  std::ostringstream out;
  CsvWriter writer{out};
  writer.write_row({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, ParseRoundTrip) {
  const auto fields = parse_csv_line("plain,\"with,comma\",\"with\"\"quote\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "plain");
  EXPECT_EQ(fields[1], "with,comma");
  EXPECT_EQ(fields[2], "with\"quote");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(Stats, RunningStatsMatchesBatch) {
  RunningStats stats;
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 10.0};
  for (const double x : v) stats.add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), mean(v));
  EXPECT_NEAR(stats.stddev(), stddev(v), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 10.0);
}

TEST(Stats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

TEST(Stats, PearsonCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> up{2, 4, 6, 8};
  const std::vector<double> down{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(a, down), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson(a, {1, 1, 1, 1}), 0.0);
  EXPECT_THROW(pearson(a, {1.0}), std::invalid_argument);
}

TEST(Interner, AssignsDenseStableIds) {
  StringInterner interner;
  const auto a = interner.intern("a.com");
  const auto b = interner.intern("b.com");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(interner.intern("a.com"), a);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.name(a), "a.com");
  EXPECT_EQ(interner.find("b.com"), b);
  EXPECT_FALSE(interner.find("c.com").has_value());
  EXPECT_THROW(interner.name(99), std::out_of_range);
}

TEST(ThreadPool, ResolveThreadsFollowsTheAffinityMask) {
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE - 1 && !CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t automatic = resolve_threads(0);
  const std::size_t capped = resolve_threads(8);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(automatic, 1u);
  EXPECT_EQ(capped, 1u);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool{4};
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool{3};
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool{2};
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool{1};
  auto fut = pool.submit([] { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

TEST(Log, MultiLineMessagesPrefixEveryLine) {
  testing::internal::CaptureStderr();
  log_line(LogLevel::kWarn, "first\nsecond\n\nfourth");
  const std::string captured = testing::internal::GetCapturedStderr();

  std::istringstream in{captured};
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("WARN"), std::string::npos) << line;
  }
  // Four lines out (the empty middle line keeps its prefix), none orphaned.
  EXPECT_EQ(lines, 4u);
  EXPECT_NE(captured.find("first"), std::string::npos);
  EXPECT_NE(captured.find("fourth"), std::string::npos);
}

TEST(Log, TrailingNewlineDoesNotEmitEmptyLine) {
  testing::internal::CaptureStderr();
  log_line(LogLevel::kWarn, "only\n");
  const std::string captured = testing::internal::GetCapturedStderr();
  EXPECT_EQ(std::count(captured.begin(), captured.end(), '\n'), 1);
}

TEST(Log, LimitedLoggerSuppressesAfterMax) {
  LimitedLogger limited{3};
  testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i) limited.warn() << "warning " << i;
  const std::string captured = testing::internal::GetCapturedStderr();

  EXPECT_EQ(std::count(captured.begin(), captured.end(), '\n'), 3);
  EXPECT_NE(captured.find("warning 0"), std::string::npos);
  EXPECT_NE(captured.find("warning 2 (further similar warnings suppressed)"),
            std::string::npos);
  EXPECT_EQ(captured.find("warning 3"), std::string::npos);
  EXPECT_EQ(limited.seen(), 10u);
}

}  // namespace
}  // namespace dnsembed::util
